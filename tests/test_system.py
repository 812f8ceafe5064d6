"""Scenario-model tests: delivery latency and paging arithmetic."""

import pytest

from repro.system import (
    DSL_1M, LAN_10M, MODEM_28_8, Link, PagingConfig, Representation,
    delivery_time, paging_run, working_set_pages,
)


class TestDelivery:
    NATIVE = Representation("native", 400_000)
    WIRE = Representation("wire", 80_000, decompress_rate=1_000_000,
                          jit_rate=2_500_000, native_bytes=400_000)
    BRISC = Representation("brisc", 120_000, jit_rate=2_500_000,
                           native_bytes=400_000)

    def test_modem_favours_smallest_representation(self):
        """The paper: over a modem the (smaller) wire code wins."""
        times = {
            rep.name: delivery_time(rep, MODEM_28_8).total_seconds
            for rep in (self.NATIVE, self.WIRE, self.BRISC)
        }
        assert times["wire"] < times["brisc"] < times["native"]

    def test_lan_brisc_competitive(self):
        """On a LAN, transfer is cheap and BRISC's single JIT pass keeps it
        within a whisker of wire (no decompress stage)."""
        wire = delivery_time(self.WIRE, LAN_10M).total_seconds
        brisc = delivery_time(self.BRISC, LAN_10M).total_seconds
        assert brisc <= wire * 1.5

    def test_overlap_masks_preparation(self):
        """The paper: "delivery time ... can mask some or even all of the
        recompilation time"."""
        serial = delivery_time(self.BRISC, MODEM_28_8, overlap=False)
        piped = delivery_time(self.BRISC, MODEM_28_8, overlap=True)
        assert piped.total_seconds < serial.total_seconds
        # Over a slow modem, transfer dominates, so the JIT is fully masked.
        assert piped.total_seconds == pytest.approx(
            MODEM_28_8.latency_seconds + piped.transfer_seconds)

    def test_no_preparation_representation(self):
        res = delivery_time(self.NATIVE, DSL_1M)
        assert res.prepare_seconds == 0
        assert res.total_seconds == pytest.approx(
            DSL_1M.latency_seconds + res.transfer_seconds)

    def test_faster_link_smaller_total(self):
        slow = delivery_time(self.WIRE, MODEM_28_8).total_seconds
        fast = delivery_time(self.WIRE, LAN_10M).total_seconds
        assert fast < slow


class TestPaging:
    def test_working_set_pages_rounds_up(self):
        assert working_set_pages(1) == 1
        assert working_set_pages(4096) == 1
        assert working_set_pages(4097) == 2

    def test_compression_reduces_faults(self):
        results = paging_run(native_bytes=400_000, compressed_bytes=200_000,
                             instructions_executed=1_000_000)
        assert results["compressed-interpreted"].pages_faulted < \
            results["native"].pages_faulted

    def test_interpretation_costs_cpu(self):
        results = paging_run(native_bytes=400_000, compressed_bytes=200_000,
                             instructions_executed=1_000_000)
        assert results["compressed-interpreted"].cpu_seconds > \
            results["native"].cpu_seconds

    def test_crossover_when_cpu_idles_on_faults(self):
        """The paper's motivating profile: with the CPU idle during paging,
        compressed pages win overall despite the interpretation penalty."""
        config = PagingConfig(fault_seconds=0.010)
        # Short run (cold start dominated by faults).
        results = paging_run(native_bytes=2_000_000,
                             compressed_bytes=1_000_000,
                             instructions_executed=5_000_000,
                             config=config)
        assert results["compressed-interpreted"].total_seconds < \
            results["native"].total_seconds

    def test_native_wins_for_hot_long_runs(self):
        config = PagingConfig(fault_seconds=0.010)
        results = paging_run(native_bytes=2_000_000,
                             compressed_bytes=1_000_000,
                             instructions_executed=20_000_000_000,
                             config=config)
        assert results["native"].total_seconds < \
            results["compressed-interpreted"].total_seconds

    def test_hybrid_between_extremes_on_cold_starts(self):
        """Keeping once-run code compressed (the paper's "many functions
        are called just once") beats all-native on fault-dominated runs."""
        config = PagingConfig(fault_seconds=0.010, cold_fraction=0.6)
        results = paging_run(native_bytes=2_000_000,
                             compressed_bytes=1_000_000,
                             instructions_executed=5_000_000,
                             config=config)
        assert results["hybrid"].total_seconds < \
            results["native"].total_seconds

    def test_strategies_report_page_counts(self):
        results = paging_run(native_bytes=40_000, compressed_bytes=20_000,
                             instructions_executed=1000)
        for r in results.values():
            assert r.pages_faulted > 0
            assert r.total_seconds == pytest.approx(
                r.fault_seconds + r.cpu_seconds)


class TestLinkValidation:
    def test_zero_or_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("dead", 0)
        with pytest.raises(ValueError):
            Link("anti", -100.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("tachyon", 1000.0, latency_seconds=-0.1)

    def test_corruption_probability_range(self):
        with pytest.raises(ValueError):
            Link("noisy", 1000.0, corruption_probability=1.0)
        with pytest.raises(ValueError):
            Link("noisy", 1000.0, corruption_probability=-0.01)
        assert Link("ok", 1000.0, corruption_probability=0.5)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Representation("neg", -1)
        with pytest.raises(ValueError):
            Representation("neg", 10, native_bytes=-5)
        with pytest.raises(ValueError):
            Representation("neg", 10, decompress_rate=0.0)
        with pytest.raises(ValueError):
            Representation("neg", 10, jit_rate=-1.0)


class TestLossyDelivery:
    from repro.system import RetryPolicy

    def test_lossless_link_is_neutral(self):
        rep = Representation("wire", 80_000)
        res = delivery_time(rep, MODEM_28_8)
        assert res.expected_retransmissions == 0.0
        assert res.retry_seconds == 0.0
        assert res.delivery_probability == 1.0

    def test_known_arithmetic_single_chunk(self):
        from repro.system import RetryPolicy

        # One 1024-byte chunk, p=0.5, one retry allowed:
        # E[attempts] = 1 + 0.5 = 1.5 -> 0.5 expected retransmissions;
        # P[delivered] = 1 - 0.5**2 = 0.75;
        # expected backoff = 0.5 (failure prob) * 0.5s = 0.25s.
        link = Link("noisy", 1024.0, corruption_probability=0.5)
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.5,
                             backoff_factor=2.0, chunk_bytes=1024)
        res = delivery_time(Representation("r", 1024), link, overlap=False,
                            retry=policy)
        assert res.expected_retransmissions == pytest.approx(0.5)
        assert res.delivery_probability == pytest.approx(0.75)
        # retry time = 0.5 resends * 1s/chunk + 0.25s backoff
        assert res.retry_seconds == pytest.approx(0.5 + 0.25)
        assert res.total_seconds == pytest.approx(
            link.latency_seconds + 1.0 + res.retry_seconds)

    def test_more_retries_raise_delivery_probability(self):
        from repro.system import RetryPolicy

        link = Link("noisy", 10_000.0, corruption_probability=0.2)
        rep = Representation("wire", 50_000)
        few = delivery_time(rep, link,
                            retry=RetryPolicy(max_retries=1)).delivery_probability
        many = delivery_time(rep, link,
                             retry=RetryPolicy(max_retries=6)).delivery_probability
        assert many > few

    def test_lossy_link_extends_total(self):
        link = Link("noisy", 3_600.0, corruption_probability=0.1)
        clean = Link("clean", 3_600.0)
        rep = Representation("wire", 80_000)
        assert delivery_time(rep, link).total_seconds > \
            delivery_time(rep, clean).total_seconds

    def test_policy_validation(self):
        from repro.system import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_bytes=0)


class TestChunkedPaging:
    """The measured chunk-size distribution path of ``paging_run``."""

    def test_chunk_faults_accounting(self):
        from repro.system import chunk_faults

        config = PagingConfig(fault_seconds=0.010,
                              transfer_bytes_per_second=1_000_000.0)
        faults, stall = chunk_faults([1000, 2000, 4096], config)
        assert faults == 3
        assert stall == pytest.approx(3 * 0.010 + 7096 / 1_000_000.0)

    def test_chunk_faults_rejects_negative_sizes(self):
        from repro.system import chunk_faults

        with pytest.raises(ValueError):
            chunk_faults([100, -1])

    def test_omitting_chunks_keeps_the_page_model(self):
        uniform = paging_run(native_bytes=400_000, compressed_bytes=200_000,
                             instructions_executed=1_000_000)
        explicit = paging_run(native_bytes=400_000, compressed_bytes=200_000,
                              instructions_executed=1_000_000,
                              native_chunks=None, compressed_chunks=None)
        for strategy in uniform:
            assert uniform[strategy].pages_faulted == \
                explicit[strategy].pages_faulted
            assert uniform[strategy].fault_seconds == \
                explicit[strategy].fault_seconds

    def test_measured_chunks_set_fault_counts(self):
        """Fetch units are the chunks themselves, not page-size guesses."""
        chunks = [1500, 3000, 800, 2000]
        results = paging_run(native_bytes=sum(chunks) * 3,
                             compressed_bytes=sum(chunks),
                             instructions_executed=1_000_000,
                             compressed_chunks=chunks)
        assert results["compressed-interpreted"].pages_faulted == len(chunks)

    def test_fewer_larger_chunks_trade_seeks_for_transfer(self):
        """The placement trade-off the model must expose: at a fixed byte
        total, chunk count moves the stall time through the per-fault
        service cost."""
        config = PagingConfig(fault_seconds=0.010,
                              transfer_bytes_per_second=4_000_000.0)
        many = paging_run(100_000, 50_000, 1_000_000, config,
                          compressed_chunks=[500] * 100)
        few = paging_run(100_000, 50_000, 1_000_000, config,
                         compressed_chunks=[25_000, 25_000])
        assert many["compressed-interpreted"].fault_seconds > \
            few["compressed-interpreted"].fault_seconds

    def test_hybrid_splits_hot_prefix_from_cold_suffix(self):
        """Hot/cold placement lays hot chunks first; the hybrid strategy
        keeps that prefix native and leaves the suffix compressed."""
        config = PagingConfig(cold_fraction=0.5)
        results = paging_run(native_bytes=8000, compressed_bytes=4000,
                             instructions_executed=10_000, config=config,
                             native_chunks=[4000, 4000],
                             compressed_chunks=[2000, 2000])
        # One hot native chunk + one cold compressed chunk.
        assert results["hybrid"].pages_faulted == 2

    def test_real_container_chunks_feed_the_model(self):
        """End to end: a v3 container index's chunk lengths drive it."""
        from repro.cfront import compile_to_ast
        from repro.container import container_index
        from repro.corpus import get_sample
        from repro.ir import lower_unit
        from repro.wire import encode_module_v3

        module = lower_unit(compile_to_ast(get_sample("wc"), "wc"), "wc")
        blob = encode_module_v3(module, chunk_bytes=256)
        index = container_index(blob)
        chunks = [c.length for c in index.chunks]
        assert len(chunks) >= 2
        results = paging_run(native_bytes=4 * len(blob),
                             compressed_bytes=len(blob),
                             instructions_executed=100_000,
                             compressed_chunks=chunks)
        assert results["compressed-interpreted"].pages_faulted == len(chunks)
