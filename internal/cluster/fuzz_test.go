package cluster

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// fuzzMaxCounters is the layout size the updates2 decoder is fuzzed
// against: small enough that out-of-range ids are easy for the fuzzer to
// construct, large enough that multi-byte varint deltas occur.
const fuzzMaxCounters = 1000

// FuzzDecodeFrame feeds arbitrary bytes to every frame-payload decoder of
// the wire protocol. The first input byte selects the decoder (mod the
// decoder count), the rest is the payload: whatever the bytes — truncated,
// bit-flipped, adversarial lengths or counts — every decoder must return an
// error or a well-formed result, never panic and never allocate beyond what
// the validated entry counts admit (the frame-IO mirror of FuzzLoadState).
// For updates2 a successful decode is additionally re-encoded and
// re-decoded, pinning the codec round trip on fuzzer-discovered inputs.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		payload := data[1:]
		switch data[0] % 6 {
		case 0:
			_, _ = decodeStart(payload)
		case 1:
			_, _ = decodeUpdates(nil, payload)
		case 2:
			ups, err := decodeUpdates2(nil, payload, fuzzMaxCounters)
			if err != nil {
				return
			}
			for i, u := range ups {
				if u.Counter >= fuzzMaxCounters || u.LocalCount < 0 {
					t.Fatalf("decodeUpdates2 accepted invalid entry %d: %+v", i, u)
				}
				if i > 0 && ups[i-1].Counter >= u.Counter {
					t.Fatalf("decodeUpdates2 accepted non-ascending ids at %d", i)
				}
			}
			again, err := decodeUpdates2(nil, encodeUpdates2(nil, ups), fuzzMaxCounters)
			if err != nil {
				t.Fatalf("re-decode of re-encoded updates2 failed: %v", err)
			}
			if len(again) != len(ups) {
				t.Fatalf("round trip changed entry count: %d != %d", len(again), len(ups))
			}
			for i := range ups {
				if again[i] != ups[i] {
					t.Fatalf("round trip changed entry %d: %+v != %+v", i, again[i], ups[i])
				}
			}
		case 3:
			_, _, _ = decodeDone(payload)
		case 4:
			_, _ = decodeStats(payload)
		case 5:
			_, _ = decodeHello(payload)
		}
	})
}

// fuzzFrameSeeds builds one valid payload per decoder (prefixed with its
// selector byte) plus truncated and bit-flipped mutants, so the fuzzer
// starts deep inside each format instead of at the first length check.
func fuzzFrameSeeds() [][]byte {
	start := encodeStart(StartConfig{
		NetName: "alarm", CPTSeed: 42, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 7, Site: 3, Events: 123456, StreamSeed: 99, LatencyMicros: 250,
		BatchEvents: 128,
	})
	v1 := encodeUpdates(nil, []Update{{Counter: 1, LocalCount: 5}, {Counter: 900, LocalCount: 31}})
	v2 := encodeUpdates2(nil, []Update{
		{Counter: 0, LocalCount: 1}, {Counter: 7, LocalCount: 300}, {Counter: 900, LocalCount: 1 << 40},
	})
	done := encodeDone(9, 777)
	stats := encodeStats(Stats{Frames: 1, Updates: 2, Events: 3})
	hello := encodeHello(12)

	var seeds [][]byte
	add := func(sel byte, payload []byte) {
		full := append([]byte{sel}, payload...)
		seeds = append(seeds, full)
		if len(payload) > 2 {
			seeds = append(seeds, append([]byte{sel}, payload[:len(payload)/2]...))
			flipped := append([]byte{sel}, payload...)
			flipped[1+len(payload)/3] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	add(0, start)
	add(0, start[:len(start)-4]) // version-1 start frame
	add(1, v1)
	add(2, v2)
	add(3, done)
	add(4, stats)
	add(5, hello)
	// Adversarial updates2 headers: huge declared count, max-varint count.
	seeds = append(seeds, []byte{2, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	seeds = append(seeds, append([]byte{2}, maxUvarint()...))
	return seeds
}

func maxUvarint() []byte {
	b := make([]byte, 0, 10)
	v := uint64(math.MaxUint64)
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// FuzzDecodeStructFrame feeds arbitrary bytes to the frameStructStats
// decoder: whatever the payload, it must return an error or a well-formed
// result (ascending in-range cell ids, non-negative counts) and never panic.
// Successful decodes are re-encoded through the dense-vector writer and
// re-decoded, pinning the struct-stats codec round trip on fuzzer-discovered
// inputs (zero-count entries drop out: the writer ships nonzero cells only).
func FuzzDecodeStructFrame(f *testing.F) {
	for _, seed := range fuzzStructFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, ups, err := decodeStructStats(nil, data, fuzzMaxCounters)
		if err != nil {
			return
		}
		for i, u := range ups {
			if u.Counter >= fuzzMaxCounters || u.LocalCount < 0 {
				t.Fatalf("decodeStructStats accepted invalid entry %d: %+v", i, u)
			}
			if i > 0 && ups[i-1].Counter >= u.Counter {
				t.Fatalf("decodeStructStats accepted non-ascending ids at %d", i)
			}
		}
		events2, again, err := decodeStructStats(nil, encodeStructStats(nil, events, denseCounts(fuzzMaxCounters, ups)), fuzzMaxCounters)
		if err != nil {
			t.Fatalf("re-decode of re-encoded struct stats failed: %v", err)
		}
		ups = slices.DeleteFunc(ups, func(u Update) bool { return u.LocalCount == 0 })
		if events2 != events || len(again) != len(ups) {
			t.Fatalf("round trip changed header: events %d != %d, entries %d != %d",
				events2, events, len(again), len(ups))
		}
		for i := range ups {
			if again[i] != ups[i] {
				t.Fatalf("round trip changed entry %d: %+v != %+v", i, again[i], ups[i])
			}
		}
	})
}

// fuzzStructFrameSeeds builds valid struct-stats payloads plus truncated and
// bit-flipped mutants and adversarial headers.
func fuzzStructFrameSeeds() [][]byte {
	var seeds [][]byte
	add := func(payload []byte) {
		seeds = append(seeds, payload)
		if len(payload) > 2 {
			seeds = append(seeds, payload[:len(payload)/2])
			flipped := append([]byte(nil), payload...)
			flipped[len(payload)/3] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	add(encodeStructStatsRef(nil, 0, nil))
	add(encodeStructStatsRef(nil, 1, []Update{{Counter: 0, LocalCount: 1}}))
	add(encodeStructStatsRef(nil, 123456, []Update{
		{Counter: 3, LocalCount: 7}, {Counter: 4, LocalCount: 300}, {Counter: 900, LocalCount: 1 << 40},
	}))
	// Max-varint event count, huge declared entry count.
	seeds = append(seeds, append(maxUvarint(), 1, 1, 1))
	seeds = append(seeds, []byte{7, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	return seeds
}

// fuzzDeltaCells and fuzzDeltaAt are the structure layout size and the
// reference position FuzzDecodeStructDelta decodes against.
const (
	fuzzDeltaCells = 64
	fuzzDeltaAt    = 300
)

// fuzzDeltaRef is the reference vector FuzzDecodeStructDelta decodes
// against: counts of several varint widths, some cells zero.
func fuzzDeltaRef() []int64 {
	ref := make([]int64, fuzzDeltaCells)
	for c := range ref {
		ref[c] = int64(c*c%7) << (7 * (c % 4))
	}
	return ref
}

// FuzzDecodeStructDelta drives the frameStructDelta codec both ways. Read as
// a payload, the input must be rejected or rebuild well-formed cumulative
// counts against the reference (ascending in-range cells, each above the
// reference by at most the frame's span) that re-encode to a payload
// decoding to the same entries. Read as one increment per cell, it must
// survive the cumulative → increments → cumulative round trip exactly.
func FuzzDecodeStructDelta(f *testing.F) {
	ref := fuzzDeltaRef()
	for _, seed := range fuzzStructDeltaSeeds(ref) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if events, ups, err := decodeStructDelta(nil, data, ref, fuzzDeltaAt); err == nil {
			cum := slices.Clone(ref)
			for i, u := range ups {
				if u.Counter >= fuzzDeltaCells || i > 0 && ups[i-1].Counter >= u.Counter {
					t.Fatalf("decodeStructDelta produced invalid or non-ascending cell at entry %d: %+v", i, u)
				}
				if inc := u.LocalCount - ref[u.Counter]; inc <= 0 || uint64(inc) > events-fuzzDeltaAt {
					t.Fatalf("decodeStructDelta accepted increment %d over %d events", inc, events-fuzzDeltaAt)
				}
				cum[u.Counter] = u.LocalCount
			}
			events2, again, err := decodeStructDelta(nil, encodeStructDelta(nil, fuzzDeltaAt, events, cum, ref), ref, fuzzDeltaAt)
			if err != nil || events2 != events || !slices.Equal(again, ups) {
				t.Fatalf("re-encoded delta frame decodes to (%d, %v, %v), want (%d, %v)", events2, again, err, events, ups)
			}
		}

		next := slices.Clone(ref)
		var span uint64
		for c := range min(len(data), fuzzDeltaCells) {
			inc := uint64(data[c]) << (7 * (c % 3))
			next[c] += int64(inc)
			span = max(span, inc)
		}
		events, ups, err := decodeStructDelta(nil, encodeStructDelta(nil, fuzzDeltaAt, fuzzDeltaAt+span, next, ref), ref, fuzzDeltaAt)
		if err != nil {
			t.Fatalf("increments of a monotone vector rejected: %v", err)
		}
		got := slices.Clone(ref)
		for _, u := range ups {
			got[u.Counter] = u.LocalCount
		}
		if events != fuzzDeltaAt+span || !slices.Equal(got, next) {
			t.Fatalf("cumulative → increments → cumulative changed the vector at position %d", events)
		}
	})
}

// fuzzStructDeltaSeeds builds valid delta payloads against ref plus
// truncated and bit-flipped mutants and adversarial headers.
func fuzzStructDeltaSeeds(ref []int64) [][]byte {
	var seeds [][]byte
	add := func(payload []byte) {
		seeds = append(seeds, payload, payload[:len(payload)/2])
		flipped := append([]byte(nil), payload...)
		flipped[len(payload)/3] ^= 0x40
		seeds = append(seeds, flipped)
	}
	next := slices.Clone(ref)
	for c := range next {
		next[c] += int64(c % 3 * 100)
	}
	add(encodeStructDelta(nil, fuzzDeltaAt, fuzzDeltaAt+256, next, ref))
	add(encodeStructDelta(nil, fuzzDeltaAt, fuzzDeltaAt, ref, ref)) // a repeat at the same position
	// Another base, a position behind the base, a max-varint position.
	seeds = append(seeds, encodeStructDelta(nil, fuzzDeltaAt+1, fuzzDeltaAt+256, next, ref))
	seeds = append(seeds, encodeStructDelta(nil, fuzzDeltaAt, fuzzDeltaAt-1, ref, ref))
	seeds = append(seeds, append(binary.AppendUvarint(nil, fuzzDeltaAt), maxUvarint()...))
	return seeds
}

// TestWriteFuzzDecodeStructFrameCorpus regenerates the committed seed corpus
// for FuzzDecodeStructFrame when DISTBAYES_WRITE_FUZZ_CORPUS is set;
// normally it only verifies the corpus directory exists.
func TestWriteFuzzDecodeStructFrameCorpus(t *testing.T) {
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzDecodeStructFrame"), fuzzStructFrameSeeds())
}

// TestWriteFuzzDecodeFrameCorpus regenerates the committed seed corpus under
// testdata/fuzz when DISTBAYES_WRITE_FUZZ_CORPUS is set; normally it only
// verifies the corpus directory exists.
func TestWriteFuzzDecodeFrameCorpus(t *testing.T) {
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzDecodeFrame"), fuzzFrameSeeds())
}

// writeFuzzCorpus writes seeds to dir in the go-fuzz corpus format when
// DISTBAYES_WRITE_FUZZ_CORPUS is set, and otherwise just verifies the
// committed corpus exists.
func writeFuzzCorpus(t *testing.T, dir string, seeds [][]byte) {
	t.Helper()
	if os.Getenv("DISTBAYES_WRITE_FUZZ_CORPUS") == "" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("seed corpus missing: %v (regenerate with DISTBAYES_WRITE_FUZZ_CORPUS=1)", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		payload := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n")
		if err := os.WriteFile(filepath.Join(dir, "seed"+strconv.Itoa(i)), payload, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
