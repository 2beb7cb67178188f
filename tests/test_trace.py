"""Tests for trace containers and persistence."""

import json
import pickle
import random
from array import array

import pytest

from repro.common.errors import TraceError
from repro.workloads.mixes import concatenate_traces, phased_trace
from repro.workloads.patterns import pointer_chase
from repro.workloads.spec_like import BENCHMARKS, make_benchmark_trace
from repro.workloads.trace import Trace, TraceMetadata


def make_trace(n=10, writes=False, name="t"):
    metadata = TraceMetadata(name=name, instructions=n * 50)
    addresses = [i * 64 for i in range(n)]
    write_mask = [i % 3 == 0 for i in range(n)] if writes else None
    return Trace(metadata, addresses, write_mask)


class TestTraceBasics:
    def test_len_and_iter(self):
        trace = make_trace(5)
        assert len(trace) == 5
        assert list(trace) == [0, 64, 128, 192, 256]

    def test_apki(self):
        trace = make_trace(10)  # 10 accesses / 500 instructions
        assert trace.accesses_per_kilo_instruction == pytest.approx(20.0)

    def test_metadata_validation(self):
        with pytest.raises(TraceError):
            TraceMetadata(name="bad", instructions=0)

    def test_writes_length_checked(self):
        metadata = TraceMetadata(name="t", instructions=10)
        with pytest.raises(TraceError):
            Trace(metadata, [0, 64], [True])


class TestUnstorableAddresses:
    """A value that does not fit an unsigned 64-bit word is rejected
    when the trace is built, not when its digest is first taken."""

    @pytest.mark.parametrize("addresses, index, value", [
        ([64, -1], 1, "-1"),
        ([1 << 64], 0, str(1 << 64)),
        ([0, 64, 128, -64, 1 << 64], 3, "-64"),
        ([0, 1.5], 1, "1.5"),
        ([0, "40"], 1, "'40'"),
    ])
    def test_rejected_with_index_and_value(self, addresses, index, value):
        metadata = TraceMetadata(name="t", instructions=10)
        with pytest.raises(TraceError) as excinfo:
            Trace(metadata, addresses)
        assert f"address {index} is {value}," in str(excinfo.value)

    def test_signed_array_rejected(self):
        metadata = TraceMetadata(name="t", instructions=10)
        with pytest.raises(TraceError, match="address 0 is -1,"):
            Trace(metadata, array("q", [-1]))

    def test_not_a_sequence_rejected(self):
        metadata = TraceMetadata(name="t", instructions=10)
        with pytest.raises(TraceError, match="sequence of ints"):
            Trace(metadata, None)

    def test_word_boundaries_accepted(self):
        metadata = TraceMetadata(name="t", instructions=10)
        trace = Trace(metadata, [0, (1 << 64) - 1])
        assert trace.addresses.tolist() == [0, (1 << 64) - 1]
        assert len(trace.content_digest()) == 64


def _loaded(tmp_path):
    trace = make_benchmark_trace(
        "xalancbmk", num_sets=64, length=2000, write_fraction=0.3
    )
    trace.save(tmp_path / "x.trace")
    return Trace.load(tmp_path / "x.trace")


#: Every way a trace is built, and the ``content_digest`` each built
#: trace had when addresses were still a list of ints.
BUILDERS = {
    "make_benchmark_trace": (
        lambda tmp_path: make_benchmark_trace("mcf", num_sets=64, length=5000),
        "e5444b09b8aea01b21bf09028ac04e6ce6291bca5f04ca29ea9fe9ddbfb4c708",
    ),
    "load": (
        _loaded,
        "d77995c5a0d581c640c9cb3ee730095e3305ba583c3c0caf7fbb1ac16b7a5da9",
    ),
    "slice": (
        lambda tmp_path: make_benchmark_trace(
            "omnetpp", num_sets=64, length=4000
        ).slice(1000, 3000),
        "108337460eafa8aec3b5c193a0884432adb22852c0244f59f70f02dc59aad761",
    ),
    "concatenate_traces": (
        lambda tmp_path: concatenate_traces([
            make_benchmark_trace("vpr", num_sets=64, length=1000),
            make_benchmark_trace(
                "mcf", num_sets=64, length=1000, write_fraction=0.2
            ),
        ]),
        "10a899652636f114d5f5ec6be3766d73f15857239a83e223c9aa3fc7dc2fc63d",
    ),
    "phased_trace": (
        lambda tmp_path: phased_trace(
            [BENCHMARKS["art"].workload(), BENCHMARKS["gobmk"].workload()],
            phase_length=1500, num_sets=64,
        ),
        "63c6e38c51a7ab6dd63826f6a70a3655632b04b08a962d37733cdd6d30e5efb7",
    ),
    "pointer_chase": (
        lambda tmp_path: pointer_chase(num_nodes=100, hops=3000),
        "cbf314f6415f82d250d35f2b6c4c9bbf182eccce3b1ce86f90ca3f2c46efbceb",
    ),
    "list": (
        lambda tmp_path: Trace(
            TraceMetadata(name="t", instructions=100),
            [0, 64, (1 << 64) - 1, 1 << 63],
        ),
        "b0aad198127d4216bb994072ae0730bae62839b1fb825b20b4840facfd849dfb",
    ),
    "pickle": (
        lambda tmp_path: pickle.loads(pickle.dumps(
            make_benchmark_trace("astar", num_sets=64, length=3000)
        )),
        "e2152efc0ff46f67f2a30dd30234e4d2dbe7ada52fb1838921076dbbd8a50da5",
    ),
}


class TestCompactStorage:
    """Addresses are one unsigned 64-bit word per access, however the
    trace was built, and every trace keeps its bytes."""

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_array_of_words_with_the_same_digest(self, tmp_path, builder):
        build, digest = BUILDERS[builder]
        trace = build(tmp_path)
        assert type(trace.addresses) is array
        assert trace.addresses.typecode == "Q"
        assert trace.content_digest() == digest

    def test_pickle_is_one_word_per_access(self):
        trace = make_benchmark_trace("mcf", num_sets=64, length=100_000)
        blob = pickle.dumps(trace)
        assert len(blob) <= 8 * 100_000 + 1024
        assert trace.addresses.tobytes() in blob  # one raw buffer


class TestSlicing:
    def test_slice_bounds(self):
        trace = make_trace(10)
        with pytest.raises(TraceError):
            trace.slice(5, 3)
        with pytest.raises(TraceError):
            trace.slice(0, 11)

    def test_slice_prorates_instructions(self):
        trace = make_trace(10)
        half = trace.slice(0, 5)
        assert len(half) == 5
        assert half.metadata.instructions == 250
        # MPKI denominators stay comparable: APKI is preserved.
        assert half.accesses_per_kilo_instruction == pytest.approx(
            trace.accesses_per_kilo_instruction
        )

    def test_slice_carries_writes(self):
        trace = make_trace(9, writes=True)
        part = trace.slice(3, 6)
        assert part.writes == trace.writes[3:6]


class TestPersistence:
    def test_roundtrip_without_writes(self, tmp_path):
        trace = make_trace(20)
        path = tmp_path / "plain.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.addresses == trace.addresses
        assert loaded.writes is None
        assert loaded.metadata.name == trace.metadata.name
        assert loaded.metadata.instructions == trace.metadata.instructions

    def test_roundtrip_with_writes(self, tmp_path):
        trace = make_trace(20, writes=True)
        path = tmp_path / "writes.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.writes == trace.writes

    @pytest.mark.parametrize("write_fraction", [0.0, 0.01, 0.3])
    def test_roundtrip_keeps_the_content_digest(
        self, tmp_path, write_fraction
    ):
        # 0.01 gives 50 read flags: a mask with no write in it.
        trace = make_benchmark_trace(
            "mcf", num_sets=64, length=50, write_fraction=write_fraction
        )
        assert (trace.writes is not None) == (write_fraction > 0.0)
        if write_fraction == 0.01:
            assert not any(trace.writes)
        path = tmp_path / "mcf.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.writes == trace.writes
        assert loaded.content_digest() == trace.content_digest()

    @pytest.mark.parametrize("lines, writes", [
        ("40\n80\n", None),
        ("40\n80 w\n", [False, True]),
    ])
    def test_header_without_writes_key_infers_the_mask(
        self, tmp_path, lines, writes
    ):
        path = tmp_path / "old.trace"
        path.write_text('{"name": "x", "instructions": 10}\n' + lines)
        assert Trace.load(path).writes == writes

    def test_ill_typed_writes_key_rejected(self, tmp_path):
        path = tmp_path / "typed.trace"
        path.write_text('{"name": "x", "instructions": 10, "writes": 1}\n40\n')
        with pytest.raises(TraceError, match="writes"):
            Trace.load(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n1000\n")
        with pytest.raises(TraceError, match="header"):
            Trace.load(path)

    def test_malformed_address_rejected(self, tmp_path):
        path = tmp_path / "bad2.trace"
        path.write_text(
            '{"name": "x", "instructions": 10}\nzz\n'
        )
        with pytest.raises(TraceError, match="bad address"):
            Trace.load(path)


class TestLoadRobustness:
    """Malformed inputs raise TraceError naming the file — never leak
    a bare KeyError/ValueError from the parser internals."""

    @pytest.mark.parametrize("missing", ["name", "instructions"])
    def test_missing_required_key(self, tmp_path, missing):
        header = {"name": "x", "instructions": 10}
        del header[missing]
        path = tmp_path / "missing.trace"
        path.write_text(json.dumps(header) + "\n40\n")
        with pytest.raises(TraceError, match=missing) as excinfo:
            Trace.load(path)
        assert str(path) in str(excinfo.value)

    def test_non_object_header(self, tmp_path):
        path = tmp_path / "list.trace"
        path.write_text("[1, 2, 3]\n40\n")
        with pytest.raises(TraceError, match="not a JSON object"):
            Trace.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError, match="header"):
            Trace.load(path)

    def test_ill_typed_header_values(self, tmp_path):
        path = tmp_path / "typed.trace"
        path.write_text('{"name": "x", "instructions": "lots"}\n40\n')
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_negative_address_rejected(self, tmp_path):
        path = tmp_path / "neg.trace"
        path.write_text('{"name": "x", "instructions": 10}\n-40\n')
        with pytest.raises(TraceError, match="negative address"):
            Trace.load(path)

    def test_address_wider_than_address_bits(self, tmp_path):
        path = tmp_path / "wide.trace"
        path.write_text(
            '{"name": "x", "instructions": 10, "address_bits": 8}\n1ff\n'
        )
        with pytest.raises(TraceError, match="wider than address_bits"):
            Trace.load(path)
        # The error names the offending line.
        with pytest.raises(TraceError, match=":2:"):
            Trace.load(path)

    def test_address_wider_than_a_word(self, tmp_path):
        path = tmp_path / "word.trace"
        path.write_text(
            '{"name": "x", "instructions": 10, "address_bits": 72}\n'
            f"{1 << 64:x}\n"
        )
        with pytest.raises(TraceError, match=":2: .* not fit in 64 bits"):
            Trace.load(path)

    def test_boundary_address_accepted(self, tmp_path):
        path = tmp_path / "edge.trace"
        path.write_text(
            '{"name": "x", "instructions": 10, "address_bits": 8}\nff\n'
        )
        assert Trace.load(path).addresses.tolist() == [0xFF]

    def test_fuzz_corrupted_files_never_leak_raw_errors(self, tmp_path):
        """Random corruption either loads or raises TraceError — no
        KeyError/ValueError/IndexError escapes the parser."""
        rng = random.Random(0xF417)
        base = make_trace(30, writes=True, name="fuzz").save(
            tmp_path / "base.trace"
        )
        original = (tmp_path / "base.trace").read_text()
        junk = "zx-{}[]\"', \n"
        for round_number in range(50):
            chars = list(original)
            for _ in range(rng.randint(1, 6)):
                position = rng.randrange(len(chars))
                if rng.random() < 0.5:
                    chars[position] = rng.choice(junk)
                else:
                    del chars[position]
            if rng.random() < 0.3:  # simulate a truncating crash too
                chars = chars[: rng.randrange(1, len(chars))]
            path = tmp_path / f"fuzz{round_number}.trace"
            path.write_text("".join(chars))
            try:
                Trace.load(path)
            except TraceError:
                pass  # the only acceptable failure mode
