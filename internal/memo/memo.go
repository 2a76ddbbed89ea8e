// Package memo is the sharded memoization layer in front of the two hot
// paths the evaluation pipeline hammers: compilation (every ReAct
// iteration recompiles, and repeats of the same curated entry recompile
// identical sources) and retrieval (the naive retrievers rescan the whole
// guidance database — rag.Fuzzy even re-shingles every LogExample — per
// call).
//
// The design follows the sharded front-end-buffer / central-aggregator
// pattern of high-throughput DAQ systems (see PAPERS.md): lookup
// structures are precomputed once and sharded by key hash, so the worker
// pool never repeats work and never serializes on a single lock.
//
// Three components:
//
//   - CompileCache — a concurrency-safe, content-addressed cache of
//     compiler.Result keyed by (persona, filename, FNV-64a of source),
//     fronting any compiler.Compiler via Cached.
//   - RetrievalIndex — a precompiled index over one rag.Database: an
//     inverted pattern→entry index serving ExactTag and Keyword, and
//     precomputed shingle sets serving Fuzzy. Wrap adapts it to the
//     rag.Retriever interface.
//   - SimCache (simcache.go) — the same content addressing over the
//     simulation oracle's pipeline: parse + elaborate + sim.Compile,
//     shared by every dataset.Problem.Check so the pass@k loop pays one
//     engine compile per distinct source.
//
// All three caches live for the process. Per-layer process totals
// (TotalsByKind) make each cache's effectiveness observable.
//
// Correctness contract: every component is transparent. A cached compile
// returns the same Result the wrapped persona would produce (results are
// shared, so callers must treat them as read-only — which every consumer
// already does); an indexed retrieval returns the same entries in the
// same order as the naive scan. Table output is therefore byte-identical
// with the layer on or off, at any worker count.
package memo

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
)

// Stats is a point-in-time snapshot of memoization counters.
type Stats struct {
	// Hits and Misses count compile-cache lookups.
	Hits   uint64
	Misses uint64
	// Evictions counts compile-cache entries displaced by capacity
	// pressure (or, rarely, by an FNV collision overwrite).
	Evictions uint64
	// Lookups counts retrievals served from a RetrievalIndex.
	Lookups uint64
}

// Add returns the component-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		Lookups:   s.Lookups + o.Lookups,
	}
}

// Sub returns the component-wise difference s - o (for delta reporting
// between two Totals snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
		Lookups:   s.Lookups - o.Lookups,
	}
}

// counters is the live, atomically-updated form of Stats. Every increment
// is mirrored into the package-global totals so CLIs can report aggregate
// cache behaviour across many fixer instances without threading handles.
type counters struct {
	hits, misses, evictions, lookups atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Lookups:   c.lookups.Load(),
	}
}

// The process-wide totals are kept per cache layer so each layer's
// effectiveness is observable (compile vs sim vs retrieval), then summed
// for the legacy aggregate view.
var (
	globalCompile   counters
	globalSim       counters
	globalRetrieval counters
)

// Totals returns the process-wide aggregate counters over every
// CompileCache, SimCache, and RetrievalIndex ever created. Under
// concurrency the hit/miss split is approximate (two workers can race to
// populate the same key, recording two misses where a serial run records
// one miss and one hit); the cached values themselves are exact.
func Totals() Stats {
	t := TotalsByKind()
	return t.Compile.Add(t.Sim).Add(t.Retrieval)
}

// KindTotals breaks the process-wide counters out per cache layer.
type KindTotals struct {
	// Compile covers every CompileCache (persona compile results).
	Compile Stats
	// Sim covers every SimCache (the simulation oracle's frontend +
	// engine-compile pipeline).
	Sim Stats
	// Retrieval covers every RetrievalIndex (lookups served from the
	// precompiled index).
	Retrieval Stats
}

// TotalsByKind returns the per-layer process-wide counters.
func TotalsByKind() KindTotals {
	return KindTotals{
		Compile:   globalCompile.snapshot(),
		Sim:       globalSim.snapshot(),
		Retrieval: globalRetrieval.snapshot(),
	}
}

// Default sizing. 64 shards keeps lock contention negligible for any
// plausible worker count; 16384 entries comfortably hold a full Table 1
// run's distinct (source, persona) population.
const (
	defaultShards   = 64
	defaultCapacity = 16384
)

// compileKey is the content address of one compilation.
type compileKey struct {
	persona  string
	filename string
	srcHash  uint64
}

// compileEntry retains the source alongside the result so an FNV-64
// collision degrades to a miss instead of serving a wrong result.
type compileEntry struct {
	src string
	res compiler.Result
}

// cacheShard is one lock domain of the cache: a bounded map with FIFO
// displacement (deterministic, no clock reads).
type cacheShard struct {
	mu      sync.Mutex
	entries map[compileKey]compileEntry
	order   []compileKey
}

// CompileCache is a concurrency-safe, sharded, content-addressed cache of
// compilation results.
type CompileCache struct {
	shards      []cacheShard
	capPerShard int
	c           counters
}

// NewCompileCache builds a cache holding at least capacity results
// across all shards; capacity <= 0 selects the default (16384). The
// bound is rounded up to shard granularity (shards × ceil(capacity /
// shards), never more than 2x the request), so a caller bounding memory
// never gets avoidable evictions below its requested capacity.
func NewCompileCache(capacity int) *CompileCache {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	shards := defaultShards
	if capacity < shards {
		shards = capacity // one entry per shard: the bound is exact
	}
	perShard := (capacity + shards - 1) / shards
	cc := &CompileCache{shards: make([]cacheShard, shards), capPerShard: perShard}
	for i := range cc.shards {
		cc.shards[i].entries = make(map[compileKey]compileEntry)
	}
	return cc
}

// Stats snapshots this cache's counters.
func (cc *CompileCache) Stats() Stats { return cc.c.snapshot() }

// Len returns the number of cached results (for tests and sizing checks).
func (cc *CompileCache) Len() int {
	n := 0
	for i := range cc.shards {
		s := &cc.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// HashSource is the content address used by the memoization layer (and
// the server's request-coalescing keys): FNV-64a over the source bytes.
// Collisions are tolerable because every consumer keeps the source
// alongside and compares it before trusting a match.
func HashSource(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return h.Sum64()
}

func (cc *CompileCache) shardFor(key compileKey) *cacheShard {
	return &cc.shards[key.srcHash%uint64(len(cc.shards))]
}

// get returns the cached result for key when present and the stored
// source matches (the collision guard).
func (cc *CompileCache) get(key compileKey, src string) (compiler.Result, bool) {
	s := cc.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if ok && e.src == src {
		cc.c.hits.Add(1)
		globalCompile.hits.Add(1)
		return e.res, true
	}
	cc.c.misses.Add(1)
	globalCompile.misses.Add(1)
	return compiler.Result{}, false
}

// peek is get without the miss accounting: a present entry counts as a
// hit (exactly as get would count it), an absent one counts nothing and
// touches nothing, so a caller probing before a full Compile leaves the
// hit/miss statistics identical to an unprobed Compile.
func (cc *CompileCache) peek(key compileKey, src string) (compiler.Result, bool) {
	s := cc.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if ok && e.src == src {
		cc.c.hits.Add(1)
		globalCompile.hits.Add(1)
		return e.res, true
	}
	return compiler.Result{}, false
}

// put stores a result, displacing the oldest entry in the shard when the
// shard is full (FIFO: deterministic and cheap; a displaced entry is
// simply recomputed on its next miss).
func (cc *CompileCache) put(key compileKey, src string, res compiler.Result) {
	s := cc.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		// Racing workers populating the same key, or an FNV collision
		// overwrite; either way the slot is already accounted in order.
		if old.src != src {
			cc.c.evictions.Add(1)
			globalCompile.evictions.Add(1)
		}
		s.entries[key] = compileEntry{src: src, res: res}
		return
	}
	for len(s.entries) >= cc.capPerShard && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[oldest]; ok {
			delete(s.entries, oldest)
			cc.c.evictions.Add(1)
			globalCompile.evictions.Add(1)
		}
	}
	s.entries[key] = compileEntry{src: src, res: res}
	s.order = append(s.order, key)
}

// cachedCompiler fronts a compiler.Compiler with a CompileCache.
type cachedCompiler struct {
	inner compiler.Compiler
	cache *CompileCache
}

// Cached wraps a persona so repeated compilations of identical
// (filename, source) pairs are served from cc. The wrapper delegates
// Name and InfoScore, so it is indistinguishable from the wrapped persona
// everywhere but in speed.
func (cc *CompileCache) Cached(c compiler.Compiler) compiler.Compiler {
	return &cachedCompiler{inner: c, cache: cc}
}

// Cached wraps a persona with a fresh default-sized cache — the
// convenience form for callers that do not need to read the counters.
func Cached(c compiler.Compiler) compiler.Compiler {
	return NewCompileCache(0).Cached(c)
}

// Name implements compiler.Compiler.
func (c *cachedCompiler) Name() string { return c.inner.Name() }

// InfoScore implements compiler.Compiler.
func (c *cachedCompiler) InfoScore() float64 { return c.inner.InfoScore() }

// CompileHit reports whether (filename, src) is already cached, returning the cached result when so.
// A hit is accounted exactly as a Compile hit; a miss has no side
// effects, and callers fall through to Compile for the full miss path.
// The tracing layer probes this (via a structural interface) to
// attribute cache hits on compile spans without widening
// compiler.Compiler.
func (c *cachedCompiler) CompileHit(filename, src string) (compiler.Result, bool) {
	key := compileKey{persona: c.inner.Name(), filename: filename, srcHash: HashSource(src)}
	return c.cache.peek(key, src)
}

// Compile implements compiler.Compiler.
func (c *cachedCompiler) Compile(filename, src string) compiler.Result {
	key := compileKey{persona: c.inner.Name(), filename: filename, srcHash: HashSource(src)}
	if res, ok := c.cache.get(key, src); ok {
		return res
	}
	res := c.inner.Compile(filename, src)
	c.cache.put(key, src, res)
	return res
}
