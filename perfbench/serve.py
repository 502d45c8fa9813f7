"""Traced service launcher: ``python serve.py ROOT SPANS.json [--port P]``.

Installs the layer wrappers and the request-id propagation from
:mod:`tracing`, then hands over to :func:`repro.service.server.run`
exactly as ``python -m repro.service`` does.  When the server stops (on
SIGINT) the spans recorded in memory are written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.service.server import run

from tracing import Tracer, install, install_service_context


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", type=Path)
    parser.add_argument("spans", type=Path)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    arguments = parser.parse_args()
    tracer = Tracer()
    install(tracer)
    install_service_context()
    try:
        run(arguments.root, arguments.host, arguments.port)
    finally:
        tracer.uninstall()
        arguments.spans.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    main()
