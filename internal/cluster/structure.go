package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/chowliu"
	"distbayes/internal/core"
	"distbayes/internal/decay"
)

// This file is the online structure-learning overlay (protocol v4; ROADMAP
// item "distributed structure learning + drift").
//
// Site side. Each site keeps exact cumulative co-occurrence counts for every
// (variable pair, value pair) cell — the sufficient statistics of a Chow–Liu
// tree — and ships them every StructBatchEvents events and at the end of its
// stream: the whole monotone vector (frameStructStats) as the first struct
// frame of each connection, resume replays included, and each cell's
// increment since the previous frame (frameStructDelta) after it. On alarm
// at the 256-event cadence that is ~27.7 B/event against ~89 for the whole
// vector (README). The counts are not computed one scatter at a time: an
// event only sets one bit per variable in a 256-event bit-sliced block
// (pairAccumulator), and the O(n²) cells are brought up to date once per
// block, and before every ship, by popcounting ANDed bit-planes — on alarm
// (37 variables, 666 pairs, 6 854 cells) ~190 ns/event at the 256-event
// cadence against ~1 250 for the per-event scatter it replaced, about equal
// at a 16-event cadence and ~2.5× the scatter when shipping after every
// event (BenchmarkPairAccumulate).
//
// Coordinator side. The connection reader rebuilds a delta frame into
// cumulative counts (fold.go), so the engine only ever folds cumulative
// counts. They are max-merged per site (idempotent, like counter reports);
// each cell's growth lands in a per-site decay.WindowVec so stale
// statistics age out, and Chow–Liu re-runs on the windowed MI matrix at every
// window-block rotation. When the learned tree's undirected edge set changes,
// the coordinator hot-swaps the published structure: a new snapshot with
// a bumped structure epoch, its parent-pair parameters seeded directly from
// the same windowed pair statistics (for a tree, the windowed pair joint
// counts ARE the CPT sufficient statistics). The flat base-DAG parameter
// tracking is untouched — structure learning is a coordinator-local overlay,
// so batching + structure learning off stays bit-identical to the sequential
// goldens, and the chaos invariants hold unchanged.
//
// Checkpoints (DBCLUS01) deliberately exclude the structure engine: a
// restored coordinator restarts with an empty MI window and relearns from
// the sites' cumulative resume replays, which restore the per-site
// statistics exactly (counts are monotone and cumulative).

// StructLayout assigns a flat cell id to every (variable pair, value pair)
// co-occurrence cell: all unordered pairs i < j over the network's
// variables, each pair owning Card(i)·Card(j) contiguous cells in value
// row-major order. It is the structure-learning counterpart of counterLayout and
// is derived deterministically from the network on both sides, so only
// cell ids travel on the wire.
type StructLayout struct {
	net     *bn.Network
	pairs   [][2]int // (i, j) with i < j, lexicographic
	pairIdx [][]int  // pairIdx[i][j-i-1] = pair index of (i, j)
	pairOff []uint32 // first cell id of each pair
	cells   uint32
}

// NewStructLayout builds the pair-cell layout for net (which needs at least
// two variables to have any pairs).
func NewStructLayout(net *bn.Network) (*StructLayout, error) {
	n := net.Len()
	if n < 2 {
		return nil, fmt.Errorf("cluster: structure learning needs >= 2 variables, net has %d", n)
	}
	l := &StructLayout{net: net, pairIdx: make([][]int, n)}
	for i := 0; i < n; i++ {
		l.pairIdx[i] = make([]int, n-i-1)
		for j := i + 1; j < n; j++ {
			l.pairIdx[i][j-i-1] = len(l.pairs)
			l.pairs = append(l.pairs, [2]int{i, j})
			l.pairOff = append(l.pairOff, l.cells)
			cells := uint64(l.cells) + uint64(net.Card(i))*uint64(net.Card(j))
			if cells > 1<<28 {
				return nil, fmt.Errorf("cluster: structure layout of %d+ cells too large", cells)
			}
			l.cells = uint32(cells)
		}
	}
	return l, nil
}

// Cells returns the total number of co-occurrence cells.
func (l *StructLayout) Cells() uint32 { return l.cells }

// NumPairs returns the number of variable pairs.
func (l *StructLayout) NumPairs() int { return len(l.pairs) }

// PairAt returns the p-th pair (i, j) with i < j.
func (l *StructLayout) PairAt(p int) (int, int) { return l.pairs[p][0], l.pairs[p][1] }

// PairIndex returns the pair index of (i, j); callers pass i < j.
func (l *StructLayout) PairIndex(i, j int) int { return l.pairIdx[i][j-i-1] }

// JointAt returns pair p's joint count table as a sub-slice of a full cell
// vector: entry vi*Card(j)+vj is the (vi, vj) co-occurrence count.
func (l *StructLayout) JointAt(counts []int64, p int) []int64 {
	lo := l.pairOff[p]
	hi := uint32(len(counts))
	if p+1 < len(l.pairs) {
		hi = l.pairOff[p+1]
	}
	return counts[lo:hi]
}

// pairBlock is the kernel's block length in events: one bit-plane is
// pairBlock/64 words, so a (variable, value) plane is half a cache line.
const pairBlock = 256

// pairAccumulator is a site's exact pair co-occurrence counter. An event only
// sets one bit per variable, in the bit-plane of the value it took; the
// O(n²) pair work happens once per block, where every cell gains
// popcount(plane[i,vi] & plane[j,vj]) — the number of block events with
// X_i = vi and X_j = vj. The cumulative vector is reachable only through
// cumulative, which folds the open block first, so a shipped or replayed
// vector is always exact at the site's stream position.
type pairAccumulator struct {
	layout   *StructLayout
	counts   []int64                  // cumulative cells through the last fold
	planes   [][pairBlock / 64]uint64 // planeOff[i]+v is the plane of X_i = v
	planeOff []int                    // len n+1; variable i owns planes[planeOff[i]:planeOff[i+1]]
	pending  int                      // events in the open block, < pairBlock
	active   []activePlane            // fold scratch, in plane order
	actOff   []int                    // fold scratch: len n+1, variable i owns active[actOff[i]:actOff[i+1]]
}

// activePlane is a plane with a bit set in the open block: the value val of
// variable vari (of cardinality card) occurred in it.
type activePlane struct{ plane, vari, val, card int }

func newPairAccumulator(l *StructLayout) *pairAccumulator {
	n := l.net.Len()
	a := &pairAccumulator{layout: l, counts: make([]int64, l.cells), planeOff: make([]int, n+1), actOff: make([]int, n+1)}
	for i := 0; i < n; i++ {
		a.planeOff[i+1] = a.planeOff[i] + l.net.Card(i)
	}
	a.planes = make([][pairBlock / 64]uint64, a.planeOff[n])
	a.active = make([]activePlane, 0, len(a.planes))
	return a
}

// add records one complete observation.
func (a *pairAccumulator) add(x []int) {
	word, bit := a.pending>>6, uint64(1)<<(a.pending&63)
	for i, v := range x {
		a.planes[a.planeOff[i]+v][word] |= bit
	}
	if a.pending++; a.pending == pairBlock {
		a.fold()
	}
}

// cumulative folds the open block and returns the cumulative cell counts
// (accumulator-owned; valid until the next add).
func (a *pairAccumulator) cumulative() []int64 {
	a.fold()
	return a.counts
}

// fold adds the open block's co-occurrences to counts and clears it. Only
// the words in use and the values seen in the block are touched, so a
// one-event block costs one cell per pair, like the scatter it replaces.
func (a *pairAccumulator) fold() {
	if a.pending == 0 {
		return
	}
	words := (a.pending + 63) >> 6
	n := len(a.planeOff) - 1
	a.active = a.active[:0]
	for j := 0; j < n; j++ {
		a.actOff[j] = len(a.active)
		lo, hi := a.planeOff[j], a.planeOff[j+1]
		for p := lo; p < hi; p++ {
			if a.planes[p] != [pairBlock / 64]uint64{} {
				a.active = append(a.active, activePlane{plane: p, vari: j, val: p - lo, card: hi - lo})
			}
		}
	}
	a.actOff[n] = len(a.active)
	pairOff := a.layout.pairOff
	for i := 0; i+1 < n; i++ {
		first := a.layout.pairIdx[i][0] - (i + 1) // pairs are lexicographic: (i, j) is pair first+j
		later := a.active[a.actOff[i+1]:]         // every active plane of the variables j > i
		for _, ei := range a.active[a.actOff[i]:a.actOff[i+1]] {
			u := a.planes[ei.plane]
			for _, ej := range later {
				v := &a.planes[ej.plane]
				c := bits.OnesCount64(u[0] & v[0])
				for w := 1; w < words; w++ {
					c += bits.OnesCount64(u[w] & v[w])
				}
				a.counts[int(pairOff[first+ej.vari])+ei.val*ej.card+ej.val] += int64(c)
			}
		}
	}
	for _, e := range a.active {
		a.planes[e.plane] = [pairBlock / 64]uint64{}
	}
	a.pending = 0
}

// ErrStructLearningOff is returned by AcquireLearnedSnapshot when the run
// was configured without structure learning.
var ErrStructLearningOff = errors.New("cluster: structure learning not enabled")

// ErrNoLearnedStructure is returned by AcquireLearnedSnapshot before the
// first window-block rotation has produced a learned tree. The serving
// layer treats it as a refresh failure: a server over a learned source
// reports unavailable (clean 503s) until the first structure lands, then
// serves normally — the documented cold-start behavior.
var ErrNoLearnedStructure = errors.New("cluster: no learned structure yet")

// StructStats summarizes the structure-learning overlay's communication and
// learning activity. It is also the "struct" object of serve's /statsz.
type StructStats struct {
	// Frames counts folded struct frames (also included in Stats.Frames)
	// and Entries the cell entries they carried: every nonzero cell of a
	// cumulative frame, and of an increment frame only the cells that
	// changed.
	Frames  int64 `json:"frames"`
	Entries int64 `json:"entries"`
	// Relearns counts Chow–Liu re-runs; Swaps counts the subset that
	// changed the undirected edge set after the first learned tree.
	Relearns int64 `json:"relearns"`
	Swaps    int64 `json:"swaps"`
	// Epoch is the current structure epoch (0 before the first learn).
	Epoch uint64 `json:"epoch"`
}

// structEngine is the coordinator's structure-learning overlay: per-site
// cumulative pair statistics, the sliding MI window, and the published
// learned structure. All mutation happens under mu on the site reader
// goroutines; the published state is an atomic pointer so query paths never
// block on ingestion.
type structEngine struct {
	layout *StructLayout
	net    *bn.Network

	mu         sync.Mutex
	perSite    [][]int64 // cumulative cell counts per site (max-merged)
	siteEvents []uint64  // per-site stream positions (max-merged)
	// windows holds one sliding window per site, advanced by that site's
	// own stream clock. Sites drain their streams at arbitrary relative
	// paces (a fast site can ship its whole stream before a slow one
	// starts), so a single window over frame-arrival order would mix stream
	// epochs; per-site windows keyed to per-site positions make the
	// windowed statistics independent of cross-site scheduling — each
	// site's contribution is exactly its own last windowEvents/k events.
	windows  []*decay.WindowVec
	agg      []int64 // scratch: sum of the per-site windows, reused
	version  uint64  // bumped per applied struct frame
	frames   int64
	entries  int64
	relearns int64
	swaps    int64
	mi       [][]float64 // scratch MI matrix, reused across relearns

	// learned is the published structure, nil before the first relearn: one
	// immutable snapshot per relearn, so readers holding an old one keep a
	// consistent view across a hot swap. Its network is the learned tree
	// (base variable names and cardinalities, learned single-parent
	// structure, rooted at variable 0); its rows are seeded with the
	// windowed pair counts, rows with an unobserved parent configuration
	// uniform. Its structure epoch counts structure changes — 1 for the first
	// learned tree, bumped every time the learned undirected edge set differs
	// from the previous one — so serving clients can observe swaps. Its
	// version is the struct-statistics version it was built from: monotone
	// across relearns (parameter refreshes bump it even when the tree is
	// unchanged), which keeps the per-client version-monotone serving
	// contract intact across hot swaps.
	learned atomic.Pointer[core.Snapshot]
}

// newStructEngine builds the overlay for a coordinator. windowEvents is the
// global window target; each site's window covers windowEvents/sites of its
// own stream (clamped to the block minimum), so the aggregate approximates
// the last windowEvents of the union stream under balanced routing and
// stays phase-aligned per site under any scheduling.
func newStructEngine(netw *bn.Network, sites int, windowEvents int64, blocks int) (*structEngine, error) {
	layout, err := NewStructLayout(netw)
	if err != nil {
		return nil, err
	}
	perSiteWindow := windowEvents / int64(sites)
	if perSiteWindow < int64(blocks) {
		perSiteWindow = int64(blocks)
	}
	e := &structEngine{
		layout:     layout,
		net:        netw,
		perSite:    make([][]int64, sites),
		siteEvents: make([]uint64, sites),
		windows:    make([]*decay.WindowVec, sites),
		agg:        make([]int64, layout.Cells()),
		mi:         make([][]float64, netw.Len()),
	}
	for i := range e.perSite {
		e.perSite[i] = make([]int64, layout.Cells())
		if e.windows[i], err = decay.NewWindowVec(int(layout.Cells()), perSiteWindow, blocks); err != nil {
			return nil, err
		}
	}
	for i := range e.mi {
		e.mi[i] = make([]float64, netw.Len())
	}
	return e, nil
}

// apply folds one decoded struct frame: max-merge the site's
// cumulative cell counts (deltas land in the site window's live block),
// advance that window's clock by the site's stream progress, and relearn on
// every block rotation. Replayed or duplicated frames contribute zero
// deltas and zero clock advance — idempotent, like counter updates.
func (e *structEngine) apply(site uint32, siteEvents uint64, ups []Update) {
	e.mu.Lock()
	defer e.mu.Unlock()
	win := e.windows[site]
	maxMerge(e.perSite[site], ups, func(id uint32, growth int64) { win.Add(int(id), growth) })
	e.frames++
	e.entries += int64(len(ups))
	e.version++
	if siteEvents > e.siteEvents[site] {
		delta := int64(siteEvents - e.siteEvents[site])
		e.siteEvents[site] = siteEvents
		if win.Advance(delta) > 0 {
			e.relearnLocked()
		}
	}
}

// relearnLocked aggregates the per-site windows, re-runs Chow–Liu on the
// windowed MI matrix, and publishes a new snapshot; the epoch bumps only
// when the undirected edge set changed. Callers hold e.mu.
func (e *structEngine) relearnLocked() {
	win := e.agg
	clear(win)
	for _, w := range e.windows {
		for c, v := range w.Windowed() {
			win[c] += v
		}
	}
	n := e.net.Len()
	for p := 0; p < e.layout.NumPairs(); p++ {
		i, j := e.layout.PairAt(p)
		v := chowliu.MIFromCounts(e.layout.JointAt(win, p), e.net.Card(i), e.net.Card(j))
		e.mi[i][j], e.mi[j][i] = v, v
	}
	parent := chowliu.TreeFromMI(e.mi)
	e.relearns++

	vars := make([]bn.Variable, n)
	for i := 0; i < n; i++ {
		base := e.net.Var(i)
		vars[i] = bn.Variable{Name: base.Name, Card: base.Card}
		if parent[i] >= 0 {
			vars[i].Parents = []int{parent[i]}
		}
	}
	netw, err := bn.NewNetwork(vars)
	if err != nil {
		// A spanning tree over validated variables cannot be cyclic;
		// treat a construction failure as "keep the previous structure".
		return
	}
	epoch := uint64(1)
	if old := e.learned.Load(); old != nil {
		epoch = old.StructureEpoch()
		if maps.Equal(chowliu.UndirectedEdges(netw), chowliu.UndirectedEdges(old.Network())) {
			netw = old.Network() // identical edge set: keep the old orientation too
		} else {
			epoch++
			e.swaps++
		}
	}
	e.learned.Store(core.NewSnapshot(netw, e.seedFactorsLocked(win, netw), e.version, time.Now(), epoch))
}

// seedFactorsLocked fills the learned tree's snapshot rows (core.NewSnapshot's
// layout: pair counts, then parent counts) straight from the windowed pair
// statistics: for a tree, a variable's pair joint counts with its parent are
// exactly the CPT sufficient statistics, and marginals come from summing any
// pair's table (every event increments every pair, and a site's frame lands
// atomically, so the tables are mutually consistent). Callers hold e.mu.
func (e *structEngine) seedFactorsLocked(win []int64, learned *bn.Network) [][]float64 {
	n := e.net.Len()
	marg := make([][]int64, n)
	for i := 0; i < n; i++ {
		ci := e.net.Card(i)
		marg[i] = make([]int64, ci)
		if i+1 < n {
			joint := e.layout.JointAt(win, e.layout.PairIndex(i, i+1))
			cj := e.net.Card(i + 1)
			for vi := 0; vi < ci; vi++ {
				for vj := 0; vj < cj; vj++ {
					marg[i][vi] += joint[vi*cj+vj]
				}
			}
		} else {
			joint := e.layout.JointAt(win, e.layout.PairIndex(i-1, i))
			cp := e.net.Card(i - 1)
			for vp := 0; vp < cp; vp++ {
				for vi := 0; vi < ci; vi++ {
					marg[i][vi] += joint[vp*ci+vi]
				}
			}
		}
	}
	var total int64
	for _, c := range marg[0] {
		total += c
	}

	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		ci := learned.Card(i)
		ps := learned.Parents(i)
		if len(ps) == 0 {
			row := make([]float64, ci+1)
			for v := 0; v < ci; v++ {
				row[v] = float64(marg[i][v])
			}
			countRow(row[:ci], &row[ci], total)
			rows[i] = row
			continue
		}
		p := ps[0]
		cp := learned.Card(p)
		tbl := make([]float64, (ci+1)*cp)
		lo, hi := i, p
		if lo > hi {
			lo, hi = hi, lo
		}
		joint := e.layout.JointAt(win, e.layout.PairIndex(lo, hi))
		cHi := e.net.Card(hi)
		for pv := 0; pv < cp; pv++ {
			for v := 0; v < ci; v++ {
				if i < p { // joint rows indexed by X_i
					tbl[pv*ci+v] = float64(joint[v*cHi+pv])
				} else { // joint rows indexed by X_p
					tbl[pv*ci+v] = float64(joint[pv*cHi+v])
				}
			}
			countRow(tbl[pv*ci:(pv+1)*ci], &tbl[ci*cp+pv], marg[p][pv])
		}
		rows[i] = tbl
	}
	return rows
}

// countRow stores den as the parent estimate *par of one parent
// configuration's pair counts; a den with no mass stores count 1 over
// J_i = len(pair) instead, which Factor reads as the uniform 1/J_i.
func countRow(pair []float64, par *float64, den int64) {
	if den > 0 {
		*par = float64(den)
		return
	}
	for v := range pair {
		pair[v] = 1
	}
	*par = float64(len(pair))
}

// stats returns the overlay's communication/learning tallies.
func (e *structEngine) stats() StructStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := StructStats{
		Frames:   e.frames,
		Entries:  e.entries,
		Relearns: e.relearns,
		Swaps:    e.swaps,
	}
	if snap := e.learned.Load(); snap != nil {
		s.Epoch = snap.StructureEpoch()
	}
	return s
}

// AcquireLearnedSnapshot returns the current learned structure as a
// core.Snapshot whose Network is the learned tree and whose StructureEpoch
// bumps exactly when the learned undirected edge set changes (a hot swap);
// garbage-collected, so Release is a no-op. It fails with
// ErrStructLearningOff when the run has no structure-learning overlay and
// ErrNoLearnedStructure before the first learned tree — both treated by the
// serving layer as refresh failures (degraded/unavailable), so a server over
// a learned source comes up cleanly mid-run.
func (co *Coordinator) AcquireLearnedSnapshot() (*core.Snapshot, error) {
	if co.structs == nil {
		return nil, ErrStructLearningOff
	}
	snap := co.structs.learned.Load()
	if snap == nil {
		return nil, ErrNoLearnedStructure
	}
	return snap, nil
}

// LearnedStructure returns the current learned tree and its structure
// epoch; ok is false before the first learn (or with learning off).
func (co *Coordinator) LearnedStructure() (netw *bn.Network, epoch uint64, ok bool) {
	snap, err := co.AcquireLearnedSnapshot()
	if err != nil {
		return nil, 0, false
	}
	return snap.Network(), snap.StructureEpoch(), true
}

// StructLearnStats returns the structure-learning overlay's tallies (zero
// values when learning is off).
func (co *Coordinator) StructLearnStats() StructStats {
	if co.structs == nil {
		return StructStats{}
	}
	return co.structs.stats()
}
