"""Workloads of the segswap benchmark and the golden digests that pin them.

Every workload is one fixed-shape sweep (a `Scenario` config) that the
benchmark runs again and again in a closed loop, each time under a new
master seed derived from `--seed`.  The same sweep at the default seed is
the output check: its CSV and manifest must hash to the pinned digests.

This module uses only the standard library, so that `setup_probe.py` can
import it before numpy and segswap and still time their import.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Master seed of the pinned output check; timed sweeps derive theirs from
# `--seed` and never use it directly.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    trials: int
    csv_sha256: str
    manifest_sha256: str

    def scenario_doc(self, master_seed: int, trials: int | None = None) -> dict:
        """The config for `Scenario.from_dict`: one sweep of this workload."""
        return {**self.config, "trials": self.trials if trials is None else trials,
                "seed": master_seed}

    def warmup_doc(self) -> dict:
        """One trial of the first grid cell at the default seed."""
        doc = self.scenario_doc(DEFAULT_SEED, trials=1)
        for key in ("sap", "pef"):
            if key in doc:
                doc[key] = doc[key][:1]
        return doc


# `trials` is per grid cell.  Sweeps are kept short (0.2-1 s on a 2-vCPU
# host) so that a run reports the median over dozens of them; why each
# workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lfs-m200",
            config={"m": 200, "n": 100, "k": 5, "algorithm": "lfs"},
            trials=1,
            csv_sha256="a49a6aeb3fedc35511473c84da87224da1a524def019c27142dbfdd082137baa",
            manifest_sha256="fbe7de9664b71201e5ec842fa10220b7fe93bdedd4839655f3648327cbe960ea",
        ),
        Workload(
            name="lspa-grid",
            config={"m": 20, "n": 50, "k": 6, "algorithm": "lspa",
                    "sap": [0.0, 0.25, 0.5], "pef": [0.05, 0.25, 1.0]},
            trials=2,
            csv_sha256="6cc29bbc60f0a50922247da78bea422af3dcb847a19afaf6cf9b54a4f27389f0",
            manifest_sha256="890efa45df1e172d190ff05d6e91862cbebcdeeded5c87b6df74c5b89a0610a4",
        ),
        Workload(
            name="rand-m200",
            config={"m": 200, "n": 20, "k": 4, "algorithm": "randomized",
                    "max_slots": 2_000_000},
            trials=1,
            csv_sha256="021bb75a3f95563dff1cc2ec14b336c6633cd8dec7937ea6b43366d6d1933f7e",
            manifest_sha256="0428557c2d09d3ea8e2de31af4a1ee587154fee3fc33241a4a71dda9485ce8d8",
        ),
        Workload(
            name="oracle-m6",
            config={"m": 6, "n": 10, "k": 3, "algorithm": "pepa", "sap": [0.0],
                    "pef": [0.25, 1.0], "oracle": True},
            trials=2,
            csv_sha256="fef1f8ae4437eed2b90f880d6dd7900b7e204b9475739573417d03b44aedd166",
            manifest_sha256="f1ba77c19fdb54e27208248fb3b1c5df138d528938926f1e2064b49c4ae56483",
        ),
    )
}


def import_segswap():
    """Import segswap from this checkout's `src/`, never from elsewhere.

    Exits with a message (status 1) when the sources are missing, so that
    the benchmark refuses to run outside a full checkout.
    """
    init = SRC / "segswap" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: segswap sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import segswap

    if Path(segswap.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported segswap from {segswap.__file__}, not {SRC}")
    return segswap
