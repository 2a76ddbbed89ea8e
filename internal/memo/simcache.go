package memo

// SimCache is the content-addressed cache in front of the simulation
// oracle's compile pipeline: parse + elaborate + sim.Compile, keyed by
// FNV-64a of the source with the same collision guard the compile cache
// uses. The functional check is the innermost loop of every pass@k
// experiment — each candidate is re-frontended for scoring, each
// problem's reference is re-frontended for vector generation on every
// Check, and rtlfixerd re-serves the same hot problems — so one shared
// SimCache turns all of that into a single compile per distinct source.
//
// Cached entries are immutable by contract: sim.Program is read-only and
// instantiated per run via sim.NewFromProgram; the design and diagnostics
// are shared exactly as the compile cache shares compiler.Result. A
// source whose design the simulator compiler rejects caches a nil Program
// and the compile error, so the rejection is not recomputed either.
//
// Counters: cache hits/misses feed both the per-cache Stats and the
// process-wide Totals, beside the compile cache's.

import (
	"sync"

	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// simEntry is one cached frontend+compile outcome.
type simEntry struct {
	src    string
	file   *verilog.SourceFile
	design *sema.Design
	diags  diag.List
	prog   *sim.Program // nil when design is nil or sim.Compile rejected it
	err    error        // sim.Compile's rejection; nil when design is nil
}

type simShard struct {
	mu      sync.Mutex
	entries map[uint64]simEntry
	order   []uint64
}

// SimCache is a concurrency-safe, sharded, content-addressed cache of
// elaborated designs and their compiled simulation programs.
type SimCache struct {
	shards      []simShard
	capPerShard int
	c           counters
}

// NewSimCache builds a cache holding at least capacity entries across all
// shards; capacity <= 0 selects the default.
func NewSimCache(capacity int) *SimCache {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	shards := defaultShards
	if capacity < shards {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	sc := &SimCache{shards: make([]simShard, shards), capPerShard: perShard}
	for i := range sc.shards {
		sc.shards[i].entries = make(map[uint64]simEntry)
	}
	return sc
}

// Stats snapshots this cache's counters.
func (sc *SimCache) Stats() Stats { return sc.c.snapshot() }

// Len returns the number of cached entries.
func (sc *SimCache) Len() int {
	n := 0
	for i := range sc.shards {
		s := &sc.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Frontend is compiler.Frontend through the cache: same results,
// amortized parse+sema.
func (sc *SimCache) Frontend(src string) (*verilog.SourceFile, *sema.Design, diag.List) {
	e := sc.lookup(src)
	return e.file, e.design, e.diags
}

// Program returns the compiled simulation program for src alongside the
// elaborated design, diagnostics and compile error. The program is nil
// when the source does not elaborate (design nil, err nil) or uses a
// construct the compiled engine rejects (design non-nil, err is
// sim.Compile's error); such a source is not simulable.
func (sc *SimCache) Program(src string) (*sim.Program, *sema.Design, diag.List, error) {
	e := sc.lookup(src)
	return e.prog, e.design, e.diags, e.err
}

func (sc *SimCache) lookup(src string) simEntry {
	key := HashSource(src)
	s := &sc.shards[key%uint64(len(sc.shards))]
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if ok && e.src == src {
		sc.c.hits.Add(1)
		globalSim.hits.Add(1)
		return e
	}
	sc.c.misses.Add(1)
	globalSim.misses.Add(1)

	e = compileSimEntry(src)

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, dup := s.entries[key]; dup {
		if old.src == src {
			// racing workers compiled the same source; keep the first
			return old
		}
		sc.c.evictions.Add(1)
		globalSim.evictions.Add(1)
		s.entries[key] = e
		return e
	}
	for len(s.entries) >= sc.capPerShard && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[oldest]; ok {
			delete(s.entries, oldest)
			sc.c.evictions.Add(1)
			globalSim.evictions.Add(1)
		}
	}
	s.entries[key] = e
	s.order = append(s.order, key)
	return e
}

// compileSimEntry runs the full oracle compile pipeline for one source.
func compileSimEntry(src string) simEntry {
	e := simEntry{src: src}
	e.file, e.design, e.diags = compiler.Frontend(src)
	if e.design != nil {
		e.prog, e.err = sim.Compile(e.design)
	}
	return e
}
