"""Smoke tests: every example script runs end to end."""

import importlib.util
import io
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [name] + list(argv)
    # Registered under its name so the example's module-level functions
    # pickle by reference: parallel sweeps hand them to forked workers.
    sys.modules[name] = module
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            spec.loader.exec_module(module)
            module.main()
    finally:
        sys.argv = old_argv
        sys.modules.pop(name, None)
    return out.getvalue()


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart")
        assert "transmitted" in out
        assert "14.8" in out  # line rate reached

    def test_quality_of_service(self):
        out = run_example("quality_of_service_test", ["50", "400"])
        assert "RX total" in out
        assert "latency" in out

    def test_l2_load_latency(self):
        out = run_example("l2_load_latency", ["0.5"])
        assert "DuT forwarded" in out
        assert "median" in out

    def test_l2_poisson_load_latency(self):
        out = run_example("l2_poisson_load_latency", ["0.5"])
        assert "fillers dropped in hardware" in out

    def test_inter_arrival_times(self):
        out = run_example("inter_arrival_times", ["20000"])
        assert "MoonGen" in out and "zsend" in out
        assert "±64ns" in out

    def test_rate_control_precision(self):
        out = run_example("rate_control_precision", ["1.0", "0.5"])
        for method in ("hardware", "crc", "software-burst"):
            assert method in out
        assert "inter-arrival histogram" in out
        assert "micro-bursts" in out

    def test_multicore_scaling(self):
        # An unpicklable sweep function would make run_parallel warn and
        # fall back to serial; the sweep must really fan out.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_example("multicore_scaling", ["3", "--jobs", "2"])
        assert "with 2 worker(s)" in out
        assert "line rate" in out
        lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(lines) == 3

    def test_timestamps(self):
        out = run_example("timestamps")
        assert "82599" in out and "X540" in out
        assert "320.0" in out  # the 2 m fiber latency of Table 3

    def test_rfc2544(self):
        out = run_example("rfc2544_throughput", ["64"])
        assert "zero-loss" in out
        assert "Mpps" in out

    def test_chaos_rfc2544(self):
        out = run_example("chaos_rfc2544", ["64"])
        assert "tolerance" in out
        assert "degenerate" in out  # the strict criterion collapses
        assert "converged on the DuT" in out  # the budgeted one recovers

    def test_pcap_replay(self):
        out = run_example("pcap_replay", ["150"])
        assert "captured 150 packets" in out
        assert "worst timing error" in out

    def test_protocol_zoo(self):
        out = run_example("protocol_zoo")
        for kind in ("udp4", "tcp4", "icmp4", "udp6", "arp"):
            assert kind in out

    def test_internet_scan(self):
        out = run_example("internet_scan", ["600"])
        assert "open hosts found" in out
        # Scan result matches the ground truth printed alongside.
        line = next(l for l in out.splitlines() if "open hosts" in l)
        found = int(line.split(":")[1].split("(")[0])
        truth = int(line.split("ground truth")[1].strip(" )"))
        assert found == truth

    def test_drift(self):
        out = run_example("drift")
        assert "worst case" in out
        assert "35.00" in out  # the Section 6.3 worst-case drift

    def test_l2_bursts(self):
        out = run_example("l2_bursts", ["4", "0.5"])
        assert "back-to-back fraction" in out
        line = next(l for l in out.splitlines() if "back-to-back" in l)
        measured = float(line.split(":")[1].split("%")[0])
        assert measured == pytest.approx(75.0, abs=5.0)  # 3 of 4 in burst

    def test_generate_results(self, tmp_path):
        out = run_example("generate_results", [str(tmp_path)])
        assert "wrote 9 CSV files" in out
        table4 = (tmp_path / "table4_rate_control.csv").read_text()
        assert "MoonGen" in table4 and "zsend" in table4
        fig8 = (tmp_path / "fig8_moongen_500kpps.csv").read_text()
        assert fig8.startswith("interarrival_ns,probability_pct")
