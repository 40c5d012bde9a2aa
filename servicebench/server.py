"""Server child: ``repro.serve`` over HTTP on an ephemeral port.

Started (and killed) by ``run.py``; prints ``PORT <n>`` once it listens.
With ``--trace-out PATH`` it first wraps the layers' public calls
(:mod:`tracing`) and then answers two signals: ``SIGUSR1`` records a
counter mark, ``SIGUSR2`` writes the spans to ``PATH`` in Chrome-trace
format.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def build_config(kind: str):
    """``pairwise``: the self-serve shape (hyperedges off); ``c1``: default."""
    from repro.core.config import BuildConfig

    if kind == "c1":
        return None
    return BuildConfig(
        name="servicebench-pairwise",
        k=3,
        gamma_edge=1.0,
        gamma_hyperedge=1.2,
        min_acv=0.5,
        include_hyperedges=False,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", choices=("pairwise", "c1"), required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    if args.trace_out:
        import tracing

        tracer = tracing.install()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.mark())
        signal.signal(signal.SIGUSR2, lambda *_: tracer.dump(args.trace_out))

    from repro.serve import TenantManager
    from repro.serve.http import create_server

    manager = TenantManager(args.root, default_config=build_config(args.config))
    server = create_server(manager, port=0)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
