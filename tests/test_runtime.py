"""Tests for the fault-ledger fold (``reconcile_ledger``).

Every ``serve-bench`` verdict is this fold's: the one rule for which
rows gate a verdict is pinned here.
"""

import pytest

from repro.reliability import FaultInjector
from repro.serving.loadgen import reconcile_ledger


class TestReconcileLedger:
    FAULTS = {"site_counted": ("x.site", 1)}      # fired twice, counted once
    INVARIANTS = {"kept": (5, 5)}

    def _injector(self):
        inj = FaultInjector(seed=0).register("x.site", 1.0)
        assert inj.fires("x.site") and inj.fires("x.site")
        return inj

    def test_fault_rows_gate_an_injector_over_clean_traffic(self):
        recon = reconcile_ledger(self._injector(), self.FAULTS,
                                 self.INVARIANTS)
        assert recon["checked"] and not recon["passed"]
        assert list(recon["checks"]) == ["site_counted", "kept"]
        assert recon["checks"]["site_counted"] == {
            "fired": 2, "counted": 1, "passed": False}
        assert "skipped" not in recon

    def test_unclean_traffic_leaves_the_fault_rows_out_and_says_so(self):
        recon = reconcile_ledger(self._injector(), self.FAULTS,
                                 self.INVARIANTS, clean=False)
        assert not recon["checked"] and recon["passed"]
        assert list(recon["checks"]) == ["kept"]
        assert "malformed traffic" in recon["skipped"]
        # Nothing fired without an injector, so nothing is skipped either.
        assert "skipped" not in reconcile_ledger(None, self.FAULTS,
                                                 self.INVARIANTS, clean=False)

    @pytest.mark.parametrize("injector", [None, "armed"])
    @pytest.mark.parametrize("clean", [True, False])
    def test_invariants_gate_always(self, injector, clean):
        recon = reconcile_ledger(injector and self._injector(), {},
                                 {"kept": (5, 4)}, clean=clean)
        assert not recon["passed"]
        assert recon["checks"]["kept"] == {
            "fired": 5, "counted": 4, "passed": False}
