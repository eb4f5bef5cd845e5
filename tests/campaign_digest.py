"""Print the library and site digests of acceptance criterion 1's campaign.

Runs the deterministic mock campaign of ``test_criterion_1_deterministic_mock_campaign``
once, in a temporary directory, against the ``src/`` of the checkout that
holds this file, and prints the two digests that the criterion compares
between runs. A change that keeps every library and site byte prints the
same two lines as its parent; run it in each checkout and compare:

    python3 tests/campaign_digest.py

The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import FIXTURES, make_engine  # noqa: E402
from skillmine.site import export_site  # noqa: E402
from skillmine.util import digest_dir  # noqa: E402
from skillmine.workers import CampaignConfig, run_campaign  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "library"
        engine = make_engine(
            root, FIXTURES / "scripts" / "campaign", catalogs=(FIXTURES / "catalog_hub.ndjson",)
        )
        config = CampaignConfig(
            campaign_id="acceptance",
            branch_schedule=("science/genomics", "science/imaging"),
            cycles_per_branch=2,
        )
        report = run_campaign(engine, config)
        if report.status != "completed":
            print(f"campaign {report.status}", file=sys.stderr)
            return 1
        export_site(engine.registry, engine.tree, root / "site")
        print(f"library {digest_dir(root, exclude=('LOCK', 'workspaces', 'sandbox'))}")
        print(f"site {digest_dir(root / 'site')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
