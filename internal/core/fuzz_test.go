package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"distbayes/internal/bn"
)

// fuzzConfigs are the tracker shapes FuzzLoadState decodes into — one per
// bank kind (randomized, exact), plus a multi-stripe variant whose
// checkpoint carries several RNG states. Slot 1 held the removed
// deterministic counter; it stays, empty and skipped, so the committed
// corpus files keep their cfg<slot> names, and its files are now
// checkpoints every tracker refuses (TestLoadStateRefusesDeterministicCounter).
func fuzzConfigs() []Config {
	return []Config{
		{Strategy: NonUniform, Eps: 0.15, Delta: 0.25, Sites: 3, Seed: 7},
		{},
		{Strategy: ExactMLE, Sites: 3, Seed: 7},
		{Strategy: Uniform, Eps: 0.2, Delta: 0.25, Sites: 3, Seed: 7, Shards: 2},
	}
}

// fuzzNet is the fixed network the fuzz trackers are built over (the
// testModel network, duplicated here without a *testing.T so the fuzz
// engine can call it).
func fuzzNet() *bn.Network {
	return bn.MustNetwork([]bn.Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 3, Parents: []int{0}},
		{Name: "C", Card: 2, Parents: []int{1}},
	})
}

// FuzzLoadState feeds arbitrary bytes to the DBAYES03 checkpoint decoder:
// whatever the input — truncated, bit-flipped, adversarially crafted record
// lengths — LoadState must return an error or succeed, never panic and
// never allocate absurdly (the record-length check against Bank.StateLen).
// The seed corpus contains valid checkpoints of every bank kind plus
// mutations of them, so the fuzzer starts deep inside the format rather
// than at the magic check.
func FuzzLoadState(f *testing.F) {
	net := fuzzNet()
	for i, cfg := range fuzzConfigs() {
		if cfg == (Config{}) {
			continue
		}
		tr, err := NewTracker(net, cfg)
		if err != nil {
			f.Fatal(err)
		}
		evs := genFuzzEvents(net, cfg.Sites, 400, 3)
		for _, ev := range evs {
			tr.Update(ev.Site, ev.X)
		}
		var buf bytes.Buffer
		if err := tr.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		snap := buf.Bytes()
		f.Add(append([]byte(nil), snap...))
		f.Add(append([]byte(nil), snap[:len(snap)/2]...)) // truncation
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)/3] ^= 0x40 // bit flip mid-record
		f.Add(flipped)
		f.Add(rngZeroed(snap, 0)) // xoshiro256**'s fixed point
		if i == 0 {
			f.Add(exactCellWithSiteState(f, net, snap))
			f.Add(cellWordEdited(f, snap, false, countWord, func(int64) int64 { return -1 }))
			f.Add(cellWordEdited(f, snap, true, countWord, func(n int64) int64 { return n + 1 }))
			f.Add(cellWordEdited(f, snap, true, estSumWord, func(n int64) int64 { return n + 1_000_000 }))
			f.Add(cellWordEdited(f, snap, true, nReportersWord, func(int64) int64 { return 1<<40 + 3 }))
			// The same checkpoint claiming the removed deterministic counter.
			renamed := append([]byte(nil), snap...)
			binary.LittleEndian.PutUint64(renamed[len(stateMagic):], tr.fingerprint(deterministicCounterWord))
			f.Add(renamed)
		}
	}
	f.Add([]byte("DBAYES03"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzConfigs() {
			if cfg == (Config{}) {
				continue
			}
			tr, err := NewTracker(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Must not panic; errors are the expected outcome for garbage.
			if tr.LoadState(bytes.NewReader(data)) != nil {
				continue
			}
			// Whatever was accepted must be a tracker that works: every
			// sampling cell has its round record and nothing indexes past
			// the records the load allocated.
			for s := range tr.shards {
				if tr.shards[s].rng.State() == ([4]uint64{}) {
					t.Fatalf("accepted the all-zero RNG state for stripe %d", s)
				}
			}
			tr.UpdateEvents(genFuzzEvents(net, cfg.Sites, 64, 5))
			tr.AcquireSnapshot().Release()
			if err := tr.SaveState(io.Discard); err != nil {
				t.Fatalf("SaveState after an accepted load: %v", err)
			}
		}
	})
}

// exactCellWithSiteState returns a copy of a cfg0 (randomized, 3 sites)
// checkpoint in which the first bank's last cell — still in exact mode after
// the corpus stream — has one in-round site delta set: the record decoders
// reject it, because a cell that has not opened a round has no record to
// load it into.
func exactCellWithSiteState(t testing.TB, net *bn.Network, snap []byte) []byte {
	// magic, fingerprint, events, two tallies, one RNG state, the first
	// record's length; then the bank header, totals, flags and the base,
	// estSum and nReporters planes of variable A's pair bank.
	const sites = 3
	cells := net.Card(0) * net.ParentCard(0)
	bank := 8 + 8 + 8 + 16 + 32 + 8
	flags := bank + 18 + 8*cells
	d := flags + cells + 3*8*cells
	if snap[flags+cells-1] != 0 {
		t.Fatal("the corpus stream took the cell this seed edits out of exact mode")
	}
	bad := append([]byte(nil), snap...)
	bad[d+8*sites*(cells-1)] = 1
	return bad
}

// Offsets, in a HYZ bank record of the given cell count, of a cell's count
// and of its estSum and nReporters words (a record's planes follow 9 bytes a
// cell: the counts and the mode flags).
func countWord(cells, cell int) int      { return 18 + 8*cell }
func estSumWord(cells, cell int) int     { return 18 + 9*cells + 8*(cells+cell) }
func nReportersWord(cells, cell int) int { return 18 + 9*cells + 8*(2*cells+cell) }

// cellWordEdited returns a copy of a cfg0 (randomized, 3 sites) checkpoint
// in which the word at `at` of the first cell in the given mode, bank by
// bank, is edit of itself. The record decoders reject a negative count, a
// sampling cell's count that is not its round record's base + Σ d (a bank
// word holds a count or a record index, and a sampling cell's count is its
// record's), and an estSum or nReporters that is not the sum or number of
// the sites' reported deltas.
func cellWordEdited(t testing.TB, snap []byte, sampling bool, at func(cells, cell int) int, edit func(int64) int64) []byte {
	// magic, fingerprint, events, two tallies, one RNG state; then
	// length-prefixed bank records: a version and kind byte, the cell and
	// site counts, a count per cell, a mode flag per cell, the planes.
	for rec := 8 + 8 + 8 + 16 + 32; rec+8 <= len(snap); {
		bank := snap[rec+8 : rec+8+int(binary.LittleEndian.Uint64(snap[rec:]))]
		cells := int(binary.LittleEndian.Uint64(bank[2:]))
		for cell := 0; cell < cells; cell++ {
			if (bank[18+8*cells+cell] == 1) == sampling {
				bad := append([]byte(nil), snap...)
				w := bad[rec+8+at(cells, cell):]
				binary.LittleEndian.PutUint64(w, uint64(edit(int64(binary.LittleEndian.Uint64(w)))))
				return bad
			}
		}
		rec += 8 + len(bank)
	}
	t.Fatalf("the corpus stream left no cell with sampling = %v", sampling)
	return nil
}

// genFuzzEvents is genEventStream without the *testing.T, for fuzz setup.
func genFuzzEvents(net *bn.Network, sites, n int, seed uint64) []Event {
	rng := bn.NewRNG(seed)
	evs := make([]Event, n)
	for j := range evs {
		x := make([]int, net.Len())
		for i := 0; i < net.Len(); i++ {
			x[i] = rng.Intn(net.Card(i))
		}
		evs[j] = Event{Site: rng.Intn(sites), X: x}
	}
	return evs
}

// TestWriteFuzzLoadStateCorpus regenerates the committed seed corpus under
// testdata/fuzz when DISTBAYES_WRITE_FUZZ_CORPUS is set; normally it only
// verifies the corpus directory exists.
func TestWriteFuzzLoadStateCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadState")
	if os.Getenv("DISTBAYES_WRITE_FUZZ_CORPUS") == "" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("seed corpus missing: %v (regenerate with DISTBAYES_WRITE_FUZZ_CORPUS=1)", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	net := fuzzNet()
	for i, cfg := range fuzzConfigs() {
		if cfg == (Config{}) {
			continue // slot 1's files are refusal cases no build rewrites
		}
		tr, err := NewTracker(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range genFuzzEvents(net, cfg.Sites, 400, 3) {
			tr.Update(ev.Site, ev.X)
		}
		var buf bytes.Buffer
		if err := tr.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		write := func(name string, data []byte) {
			t.Helper()
			payload := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
			if err := os.WriteFile(filepath.Join(dir, name), payload, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		prefix := "cfg" + strconv.Itoa(i)
		write(prefix+"-valid", snap)
		write(prefix+"-truncated", snap[:len(snap)/2])
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)/3] ^= 0x40
		write(prefix+"-bitflip", flipped)
		write(prefix+"-zero-rng", rngZeroed(snap, 0))
		if i == 0 {
			write(prefix+"-exact-cell-site-state", exactCellWithSiteState(t, net, snap))
		}
	}
}

// TestLoadStateRefusesDeterministicCounter loads the committed checkpoints of
// fuzz slot 1 — written by a NonUniform tracker (ε 0.15, 3 sites, seed 7)
// running the removed deterministic counter — into the HYZ tracker of that
// configuration: each is refused by name, before the tracker changes.
func TestLoadStateRefusesDeterministicCounter(t *testing.T) {
	tr, err := NewTracker(fuzzNet(), Config{Strategy: NonUniform, Eps: 0.15, Sites: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	before := stateBytes(t, tr)
	for _, name := range []string{"cfg1-valid", "cfg1-truncated", "cfg1-bitflip"} {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadState", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus file (%v)", name, err)
		}
		if err := tr.LoadState(strings.NewReader(data)); !errors.Is(err, errDeterministicCounter) {
			t.Errorf("%s: err = %v, want %v", name, err, errDeterministicCounter)
		}
	}
	if !bytes.Equal(stateBytes(t, tr), before) {
		t.Error("a refused load changed the tracker")
	}
}
