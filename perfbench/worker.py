"""One worker process: set up, then run one pass over a workload's corpus.

Run by ``run.py``; each pass gets a fresh process, so the caches of
``msdiagram`` (the canonical-key and passage caches) start empty on every
pass.  The last line of standard output is the pass result as JSON.

    python3 perfbench/worker.py '{"mode": "pass", "workload": "kirby", "seed": 1, ...}'

Modes: ``setup`` (set up only), ``pass`` (set up, then one timed pass) and
``guard`` (one canonical_key on T(11,11) under a memory limit; started by a
``decide`` pass).
"""

from __future__ import annotations

import time

import calib

C0 = calib.calibrate()
T0 = time.perf_counter()

import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PASS_MEMORY = 2 << 30    # address-space cap of a pass worker
GUARD_MEMORY = 1 << 29   # address-space cap of the guarded T(11,11) worker
GUARD_SECONDS = 60       # wall-clock cap of the guarded worker
PROCESS_EVERY = 3        # items between two calibration processes (cli-cold)


def setup(cfg: dict):
    """Warm the bytecode, import the package and build the seeded corpus."""
    compileall.compile_dir(os.path.join(SRC, "msdiagram"), quiet=1)
    sys.path[:0] = [SRC, HERE]
    import msdiagram

    if not os.path.abspath(msdiagram.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"msdiagram imported from {msdiagram.__file__}, not from {SRC}")
    import corpus

    built = corpus.BUILDERS[cfg["workload"]](cfg["seed"], cfg.get("tiny", False))
    paths = {}
    if cfg["workload"] == "cli-cold":
        from msdiagram import format as msd_format

        files, built = built
        os.makedirs(cfg["workdir"], exist_ok=True)
        for name, d in files.items():
            paths[name] = os.path.join(cfg["workdir"], f"{name}.msd")
            with open(paths[name], "w") as f:
                f.write(d if isinstance(d, str) else msd_format.serialize(d))
    return built, paths


def guarded(it: dict, cfg: dict):
    """Run one blow-up-prone item in its own process under the guard limits."""
    sub = dict(cfg, mode="guard", item=it["name"])
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), json.dumps(sub)],
                              capture_output=True, text=True, timeout=GUARD_SECONDS,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        return {"status": "guard", "ms": (time.perf_counter() - start) * 1e3,
                "error": f"wall clock over {GUARD_SECONDS} s", "checks": 0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "guard", "ms": (time.perf_counter() - start) * 1e3,
                "error": f"exit {proc.returncode}: {proc.stderr[-200:]}", "checks": 0}
    return json.loads(lines[-1])


def run_guard(cfg: dict) -> dict:
    resource.setrlimit(resource.RLIMIT_AS, (GUARD_MEMORY, GUARD_MEMORY))
    built, _ = setup(cfg)
    import items

    it = next(x for x in built if x["name"] == cfg["item"])
    check = items.Checks()
    start = time.perf_counter()
    try:
        items.key(it, check)
        status, error = "ok", ""
    except items.Wrong as e:
        status, error = "wrong", str(e)
    except MemoryError:
        status, error = "guard", "MemoryError"
    return {"status": status, "ms": (time.perf_counter() - start) * 1e3,
            "error": error, "checks": check.count}


def run_pass(cfg: dict) -> dict:
    resource.setrlimit(resource.RLIMIT_AS, (PASS_MEMORY, PASS_MEMORY))
    built, paths = setup(cfg)
    setup_raw = time.perf_counter() - T0
    kernel = [(0, calib.calibrate())]
    setup_s = setup_raw * calib.scale(C0, kernel[0][1])
    if cfg["mode"] == "setup":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw}

    import corpus
    import items
    from msdiagram import equivalence

    tracer = None
    if cfg.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    key_cache = tracer.original("equivalence.canonical_key") if tracer else equivalence.canonical_key
    if key_cache.cache_info().currsize:
        raise SystemExit("canonical_key cache is not cold at the start of the pass")

    # msd processes are scaled by a calibration process, one every few items
    cli = cfg["workload"] == "cli-cold"
    env = items.cli_env(ROOT)
    process = [(0, calib.calibrate_process(env))] if cli else []
    check = items.Checks()
    results = []
    order = corpus.pass_order(built, cfg["seed"], cfg["pass_index"])
    start = time.perf_counter()
    for pos, index in enumerate(order, 1):
        it = built[index]
        if tracer:
            tracer.item = it["name"]
        res = {"index": index, "name": it["name"], "kind": it["kind"], "verdict": None,
               "tracked": it.get("tracked", False)}
        t = time.perf_counter()
        try:
            if it["kind"] == "guarded_key":
                out = guarded(it, cfg)
                check.count += out["checks"]
                res.update(status=out["status"], error=out["error"])
                res["ms"] = out["ms"]
            elif it["kind"] == "cli":
                seconds, res["verdict"] = items.cli(it, check, paths, cfg["workdir"], ROOT)
                res.update(ms=seconds * 1e3, status="ok")
            else:
                res["verdict"] = items.PIPELINES[it["kind"]](it, check)
                res["status"] = "ok"
        except items.Wrong as e:
            res.update(status="wrong", error=str(e))
        except Exception as e:  # a failed operation is counted, and the pass goes on
            res.update(status="failed", error=f"{type(e).__name__}: {e}")
        res.setdefault("ms", (time.perf_counter() - t) * 1e3)
        kernel.append((pos, calib.calibrate()))
        if cli and (pos % PROCESS_EVERY == 0 or pos == len(order)):
            process.append((pos, calib.calibrate_process(env)))
        results.append(res)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.item = ""
    for i, res in enumerate(results):
        if res["kind"] == "cli":
            factor = calib.window_scale(process, i, 6, calib.REFERENCE_PROCESS_S)
        else:
            factor = calib.window_scale(kernel, i, 20, calib.REFERENCE_S)
        res["ref_ms"] = res["ms"] * factor

    out = {"setup_s": setup_s, "setup_raw_s": setup_raw, "wall_s": wall_s, "items": results,
           "checks": check.count, "calib_s": statistics.median(s for _, s in kernel)}
    if process:
        out["calib_process_s"] = statistics.median(s for _, s in process)
    if tracer:
        out["trace"] = layer_stats(tracer, key_cache, built, paths, cfg,
                                   calib.REFERENCE_S / out["calib_s"],
                                   calib.REFERENCE_PROCESS_S / out.get("calib_process_s", 1))
    return out


def layer_stats(tracer, key_cache, built, paths, cfg, factor: float,
                process_factor: float) -> dict:
    """Calls, self times and counts of the traced pass, then the scaling rows.

    Times are in reference milliseconds: scaled by ``factor``, from the
    pass's median kernel calibration, each scaling row by its own kernel
    calibrations, and the cold imports by ``process_factor``, from the
    pass's median calibration process.
    """
    cli_stats = (cli_layers(built, paths, cfg, process_factor)
                 if cfg["workload"] == "cli-cold" else {})
    info = key_cache.cache_info()
    lookups = info.hits + info.misses
    own_ns, _ = tracer.times()
    self_ms: dict[str, float] = {}
    for (name, _item), ns in own_ns.items():
        self_ms[name] = self_ms.get(name, 0.0) + ns / 1e6 * factor
    stats = {
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "self_ms": self_ms,
        "cache_hit_share": info.hits / lookups if lookups else 0.0,
        "spans": len(tracer.spans),
        "cli": cli_stats,
    }
    # scaling probes run after the counts above are taken, so they add
    # only their own rows: the total time of one function on one size
    import corpus

    scale_factor = {}
    for tag, name, args in corpus.scaling(cfg["workload"], cfg["seed"]):
        module, fn = name.split(".")
        tracer.item = f"scale:{tag}"
        before = calib.calibrate()
        getattr(sys.modules[f"msdiagram.{module}"], fn)(*args)
        scale_factor[tracer.item] = calib.scale(before, calib.calibrate())
    tracer.item = ""
    _, total_ns = tracer.times()
    stats["scale_ms"] = {f"{name}.{item[len('scale:'):]}": ns / 1e6 * scale_factor[item]
                         for (name, item), ns in total_ns.items() if item.startswith("scale:")}
    os.makedirs(cfg["outdir"], exist_ok=True)
    path = os.path.join(cfg["outdir"], f"spans-{cfg['workload']}-{cfg['seed']}.jsonl")
    tracer.write(path)
    stats["spans_file"] = os.path.relpath(path, ROOT)
    return stats


def cli_layers(built, paths, cfg, factor: float) -> dict:
    """Cold import time, and each subcommand run in-process under the tracer."""
    import contextlib
    import io

    import items
    from msdiagram import cli

    probe = "import time; t = time.perf_counter(); import msdiagram; print(time.perf_counter() - t)"
    imports = [float(subprocess.run([sys.executable, "-c", probe], env=items.cli_env(ROOT),
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(5)]
    paths = dict(paths, out=os.path.join(cfg["workdir"], "inproc-out"),
                 log=os.path.join(cfg["workdir"], "inproc-log"))
    for it in built:
        argv = [paths[a[1:]] if a.startswith("@") else a for a in it["args"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass
    return {"import_ms": statistics.median(imports) * 1e3 * factor}


def main():
    cfg = json.loads(sys.argv[1])
    try:
        out = run_guard(cfg) if cfg["mode"] == "guard" else run_pass(cfg)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
