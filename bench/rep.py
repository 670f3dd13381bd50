"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py '{"workload": "grid_serial", "seed": 0, ...}'

A fresh interpreter starts every repetition with empty memo tables, as a
user's `bernsym` process does.  The repetition imports bernsym from the
checkout's `src`, builds its input (this is the set-up time), runs the
CLI entry point `bernsym.cli.main` in-process with stdout captured,
checks the exact output, and prints one JSON line with its timings,
memory, the sha256 of the output and the number of failed operations.
Untraced, a pace.Pacer runs from the start, in the pool workers too:
the wall time of its slices is taken off the timings, and the host
speed it measured is reported beside them.
With "trace" set it installs the tracing wrappers first and adds the
per-layer metrics.  Exit status 3 means bernsym could not be imported
from the checkout.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _import_cli():
    """bernsym.cli from the checkout's src, or None (with the reason on stderr)."""
    sys.path.insert(0, SRC)
    try:
        import bernsym.cli
    except ImportError as exc:
        print(f"bench: cannot import bernsym from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.realpath(bernsym.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"bench: bernsym was imported from {bernsym.cli.__file__}, not {SRC}", file=sys.stderr)
        return None
    return bernsym.cli


def main() -> int:
    request = json.loads(sys.argv[1])
    start = time.perf_counter()
    pacer = None
    if not request["trace"]:
        import pace

        pacer = pace.Pacer()
        pacer.start()
    cli = _import_cli()
    if cli is None:
        return 3
    set_up_at = time.perf_counter()  # the tracer's installation is not set-up

    # imported only now, so that set-up pays for every module bernsym needs
    import hashlib
    import io
    import resource
    from contextlib import redirect_stdout

    import checks
    import workloads

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[request["workload"]]
    inputs = workloads.draw_inputs(request["seed"])

    # -- set-up: the built input ------------------------------------------------
    t0 = time.perf_counter()
    if workload.kind == "grid":
        config = cli.SweepConfig(
            moduli=workloads.MODULI,
            theorems=workloads.THEOREMS,
            n_max=request["n_max"],
            weights=inputs.weights,
            ys_pool=inputs.ys,
        )
        ops = len(cli.build_instances(config))
    else:
        from bernsym.characters import enumerate_characters

        chars = {
            d: [chi.label for chi in enumerate_characters(d) if chi.primitive]
            for d in workloads.MODULI
        }
        pairs = workloads.lambda_pairs(inputs, chars, request["order"])
        if request["part"] is not None:
            pairs = pairs[request["part"]::request["parts"]]
        ops = len(pairs)
    setup_s = (set_up_at - start) + (time.perf_counter() - t0)
    setup_speed = 1.0
    paced = None  # () -> (host speed, wall time in slices), over the measured calls
    if pacer is not None:
        setup_speed, paced_s = pacer.take()
        setup_s -= paced_s
        if request["jobs"] > 1:
            # the pool workers do the work; this process mostly waits for them
            pacer.stop()
            paced = pace.pace_forked_children()
        else:
            paced = pacer.totals
    if request["setup_only"]:
        pacer.stop()
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    # -- the measured calls -------------------------------------------------------
    def call(argv):
        buf = io.StringIO()
        paced_before = paced()[1] if paced else 0.0
        began = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a lost one
            print(f"bench: {argv[0]} raised {exc!r}", file=sys.stderr)
            code = "crash"
        took = time.perf_counter() - began
        if paced:  # the slices ran in place of the work
            took -= paced()[1] - paced_before
        return code, buf.getvalue(), took

    digest = hashlib.sha256()
    main_s = 0.0
    report_bytes = 0
    if workload.kind == "grid":
        argv = workloads.sweep_argv(inputs, request["jobs"], request["n_max"], request["perturb"])
        code, out, main_s = call(argv)
        digest.update(out.encode())
        report_bytes = len(out.encode())
        failed, probe = checks.check_sweep(code, out, ops)
    else:
        failed, probe = 0, None
        for i, pair in enumerate(pairs):
            if tracer is not None:
                tracer.instance = f"pair{i}"
            code, out, dt = call(pair["argv"])
            main_s += dt
            digest.update(out.encode())
            report_bytes += len(out.encode())
            failed += not checks.check_lambda(code, out, pair, request["order"])

    main_speed = 1.0
    if paced:
        pacer.stop()
        main_speed = paced()[0]
    result = {
        "ops": ops,
        "failed": failed,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "main_s": main_s,
        "main_speed": main_speed,
        "sha256": digest.hexdigest(),
        "probe": probe,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(ops, main_s, request["jobs"], report_bytes)
        out_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"{workload.name}-seed{request['seed']}.spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
