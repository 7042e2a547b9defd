"""Tests for the replication recommendation: the model's ``recommend``
and the lines ``repro analytic`` prints from it."""

import pytest

from repro.analysis.model import (
    crossover_write_rate,
    message_count_ratio,
    recommend,
    transfer_volume,
)
from repro.cli import main


def analytic(capsys, *argv: str) -> str:
    assert main(["analytic", *argv]) == 0
    return capsys.readouterr().out


def counts(write_rate, ops=1000.0):
    """(writes, reads) of ``ops`` operations at ``write_rate``."""
    return write_rate * ops, (1.0 - write_rate) * ops


class TestProfileValidation:
    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            recommend(1, 1, *counts(0.5))

    def test_write_rate_bounds(self):
        with pytest.raises(ValueError):
            message_count_ratio(5, 2, 1.5)
        with pytest.raises(SystemExit, match="-w/--write-rate"):
            main(["analytic", "-n", "5", "-w", "1.5"])

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            recommend(5, 2, *counts(0.5), payload_bytes=-1)

    def test_default_replication_factor_is_papers(self, capsys):
        assert "n=10 p=3 " in analytic(capsys, "-n", "10", "-w", "0.5")
        assert "n=10 p=5 " in analytic(capsys, "-n", "10", "-w", "0.5",
                                       "-p", "5")


class TestRecommendations:
    def test_write_intensive_large_system_goes_partial(self):
        w, r = counts(0.7)
        assert recommend(20, 6, w, r, 679_000) == ("partial", "opt-track")
        assert message_count_ratio(20, 6, 0.7) < 1.0
        partial, full = transfer_volume(20, 6, w, r, 679_000)
        assert partial < full

    def test_read_heavy_tiny_system_goes_full(self):
        assert recommend(3, 1, *counts(0.1)) == ("full", "opt-track-crp")

    def test_crossover_matches_eq2(self, capsys):
        assert crossover_write_rate(9) == pytest.approx(0.2)
        assert "2/(n+1) = 0.200" in analytic(capsys, "-n", "9", "-w", "0.5")

    def test_storage_ledger(self, capsys):
        out = analytic(capsys, "-n", "10", "-w", "0.5")
        assert "3 vs 10 copies per object" in out
        assert "70% of reads" in out

    def test_rationale_mentions_eq2(self, capsys):
        out = analytic(capsys, "-n", "10", "-w", "0.5")
        assert "eq. (2)" in out
        assert "recommended           : partial replication, protocol " \
               "opt-track\n" in out

    def test_payload_tilts_split_decisions(self, capsys):
        # just below the count threshold, a huge payload still makes
        # partial replication the cheaper transfer choice
        n, p = 5, 2
        w, r = counts(0.30)
        assert crossover_write_rate(n) == pytest.approx(1 / 3)
        # count criterion says full; transfer criterion decides
        partial, full = transfer_volume(n, p, w, r, 679_000)
        assert partial < full
        assert recommend(n, p, w, r, 679_000) == ("partial", "opt-track")
        out = analytic(capsys, "-n", "5", "-w", "0.3", "--payload", "679000")
        assert "full replication sends fewer messages" in out
        assert "partial replication, protocol opt-track; criteria split" in out

    def test_message_counts_consistent_with_models(self):
        from repro.analysis.model import (
            opt_track_crp_total_size,
            opt_track_total_size,
        )

        w, r = counts(0.4, ops=500)
        partial = opt_track_total_size(12, 3, w, r)
        full = opt_track_crp_total_size(12, w)
        assert transfer_volume(12, 3, w, r) == pytest.approx(
            (partial.total_bytes, full.total_bytes))
        assert transfer_volume(12, 3, w, r, 100.0) == pytest.approx((
            partial.total_bytes + 100.0 * (partial.sm_count + partial.rm_count),
            full.total_bytes + 100.0 * full.sm_count))
