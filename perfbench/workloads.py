"""The benchmark's workloads: fixed lists of ``mqisim`` invocations.

Each invocation is one command line of the CLI, run from the root of a
checkout.  The runner appends ``--output <file> --quiet`` to it, so every
invocation writes its table to a file that the output check reads.  The
workload seed only shuffles the order of the invocations within a pass;
the invocations themselves never change.  README.md says why each
workload exists.
"""

from __future__ import annotations

from typing import NamedTuple


class Invocation(NamedTuple):
    key: str            # unique name, also the key of its reference in refs.json
    argv: tuple         # arguments after ``mqisim``
    fmt: str = "csv"    # output format the argv selects


def _preset(name: str) -> Invocation:
    return Invocation("preset." + name, (name.split("_")[0], "--config", f"configs/{name}.cfg"))


def _qcb_sweep(sig: int, idl: int, noise: int, cl: int) -> Invocation:
    return Invocation(
        f"qcb.c5_{sig}_{idl}_{noise}_{cl}",
        ("qcb", "--transmitter", "both", "--n-s", "0.1", "--eta", "0.1", "--n-b", "1",
         "--sweep-var", "n_b", "--sweep-values", "1,2,4",
         "--cutoff-signal", str(sig), "--cutoff-idler", str(idl),
         "--cutoff-noise", str(noise), "--cutoff", str(cl)),
    )


_WIGNER_LARGE = ("wigner", "--kappa", "1.5", "--plane", "qs,pi", "--range=-8,8",
                 "--samples", "401")

WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # start-up bound: interpreter and imports dominate, no dense QCB
    "cli_small": (
        *(_preset(name) for name in (
            "detect_background_sweep",
            "spectrum_k05", "spectrum_k15", "spectrum_k30",
            "wigner_tmsv_k05_qs_pi", "wigner_tmsv_k05_qs_ps",
            "wigner_tmsv_k15_qs_pi", "wigner_tmsv_k15_qs_ps",
        )),
        Invocation("c9.state", ("state", "--kappa", "0.5", "--cutoff", "12")),
        Invocation("c9.wigner", ("wigner", "--kappa", "0.5", "--plane", "qs,pi",
                                 "--samples", "41")),
        Invocation("c9.spectrum", ("spectrum", "--kappa-max", "3", "--steps", "81")),
        Invocation("c9.detect", ("detect", "--eta", "1", "--n-s", "1", "--n-b", "1",
                                 "--pulses", "10")),
        Invocation("c9.qcb_classical", ("qcb", "--transmitter", "classical", "--n-s", "0.1",
                                        "--eta", "0.5", "--n-b", "1", "--cutoff", "30")),
    ),
    # dense hypothesis assembly and eigendecomposition at both reference sizes
    "qcb_sweep": (
        _preset("qcb_background_sweep"),
        _qcb_sweep(48, 10, 48, 48),
        _qcb_sweep(72, 15, 72, 72),
    ),
    # output bound: row building and emission of large tables, no QCB
    "large_tables": (
        Invocation("large.wigner_csv", _WIGNER_LARGE),
        Invocation("large.wigner_json", _WIGNER_LARGE + ("--format", "json"), "json"),
        Invocation("large.spectrum", ("spectrum", "--kappa-max", "3", "--steps", "100001")),
        Invocation("large.detect", ("detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1",
                                    "--t-int", "1e-3", "--bandwidth", "1e9",
                                    "--sweep-var", "n_b", "--sweep-from", "0.5",
                                    "--sweep-to", "100", "--sweep-steps", "20000")),
    ),
}
