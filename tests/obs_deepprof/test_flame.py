"""Tests for folded-stack parsing and the inline-SVG flamegraph."""

import pytest

from repro.obs import deepprof
from repro.obs.flame import (
    flamegraph_svg,
    folded_from_spans,
    parse_folded,
)
from repro.obs.recorder import Recorder
from tests.obs.span_sources import span_sources


class TestParseFolded:
    def test_parses_stack_count_lines(self):
        text = "span:a;m:f 3\nm:g 1\n"
        assert parse_folded(text) == {"span:a;m:f": 3, "m:g": 1}

    def test_blank_lines_ignored(self):
        assert parse_folded("\n  \nm:f 2\n\n") == {"m:f": 2}

    def test_duplicate_keys_accumulate(self):
        assert parse_folded("m:f 2\nm:f 3\n") == {"m:f": 5}

    def test_malformed_line_names_the_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_folded("m:f 1\nnot-a-folded-line\n")

    def test_non_numeric_count_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_folded("m:f -3\n")

    def test_round_trips_with_folded_lines(self):
        samples = {"span:a;m:f": 3, "span:a;span:b;m:g": 2, "m:h": 1}
        assert parse_folded(deepprof.folded_lines(samples)) == samples

    def test_empty_text(self):
        assert parse_folded("") == {}


class TestFoldedFromSpans:
    def test_weights_are_self_time_microseconds(self):
        spans = [
            {"index": 0, "parent": None, "name": "root", "duration_s": 1.0},
            {"index": 1, "parent": 0, "name": "child", "duration_s": 0.4},
        ]
        assert folded_from_spans(spans) == {
            "root": 600_000,
            "root;child": 400_000,
        }

    def test_zero_self_time_spans_are_dropped(self):
        spans = [
            {"index": 0, "parent": None, "name": "wrapper", "duration_s": 0.5},
            {"index": 1, "parent": 0, "name": "inner", "duration_s": 0.5},
        ]
        assert folded_from_spans(spans) == {"wrapper;inner": 500_000}

    def test_names_are_cleaned_for_folded_keys(self):
        spans = [
            {"index": 0, "parent": None, "name": "a b;c", "duration_s": 0.1}
        ]
        assert folded_from_spans(spans) == {"a_b,c": 100_000}

    def test_accepts_span_records(self):
        recorder = Recorder(enabled=True)
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        samples = folded_from_spans(recorder.spans)
        assert all(key.startswith("outer") for key in samples)
        for label, records in span_sources():
            events = [record.to_dict() for record in records]
            assert folded_from_spans(records) == folded_from_spans(events), label
            assert folded_from_spans(records), label

    def test_empty(self):
        assert folded_from_spans([]) == {}


class TestFlamegraphSvg:
    SAMPLES = {"span:a;m:f": 30, "span:a;m:g": 20, "m:h": 10}

    def test_byte_deterministic(self):
        assert flamegraph_svg(self.SAMPLES) == flamegraph_svg(
            dict(reversed(list(self.SAMPLES.items())))
        )

    def test_self_contained_single_svg(self):
        svg = flamegraph_svg(self.SAMPLES)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.rstrip().endswith("</svg>")
        assert "<script" not in svg
        # No external references: the xmlns is the only URL.
        assert svg.count("http") == 1

    def test_title_reports_the_sample_total(self):
        svg = flamegraph_svg(self.SAMPLES, title="demo profile")
        assert "demo profile" in svg
        assert "(60 samples)" in svg

    def test_width_is_honored(self):
        svg = flamegraph_svg(self.SAMPLES, width=777)
        assert 'width="777"' in svg

    def test_hostile_names_are_escaped(self):
        samples = {'<evil>&"name";x 10': 10}
        svg = flamegraph_svg(samples, title='<t> & "q"')
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg
        assert "<t>" not in svg
        # Every ampersand is part of an entity, never raw.
        for index in [i for i, c in enumerate(svg) if c == "&"]:
            assert svg[index : index + 4] in ("&lt;", "&gt;", "&amp") or svg[
                index : index + 6
            ].startswith("&quot;")

    def test_tooltips_present_for_every_frame(self):
        svg = flamegraph_svg(self.SAMPLES)
        for name in ("span:a", "m:f", "m:g", "m:h"):
            assert f"<title>{name} — " in svg

    def test_empty_profile_still_renders(self):
        svg = flamegraph_svg({})
        assert svg.startswith("<svg")
        assert "(0 samples)" in svg
