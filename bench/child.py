"""Child process of the benchmark: one safereach CLI run, traced or cut short.

    python3 bench/child.py trace SPANS.npz <safereach.cli arguments>
        runs the command with span tracing and writes the spans to SPANS.npz;
    python3 bench/child.py setup <safereach.cli arguments>
        runs the command's set-up only: imports, argument parsing,
        ``load_config``, ``build_scenario`` and the manifest, with the command
        handler replaced by one that does nothing.
"""

from __future__ import annotations

import sys

COMMANDS = ("cmd_simulate", "cmd_reach", "cmd_barrier_eval", "cmd_check", "cmd_smooth")


def main(argv: list[str]) -> int:
    import safereach.cli as cli

    if argv[:1] == ["setup"]:
        for name in COMMANDS:
            setattr(cli, name, lambda scn, args, manifest: 0)
        return cli.main(argv[1:])
    if argv[:1] == ["trace"] and len(argv) >= 2:
        from spans import Tracer

        tracer = Tracer().install()
        try:
            return cli.main(argv[2:])
        finally:
            tracer.uninstall()
            tracer.save(argv[1])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
