// Persistence adapters: the bridge between the in-memory memoization
// caches and the durable content-addressed store (internal/store).
//
// Design rules shared by all three adapters:
//
//   - In-memory-first: the hot lookup path is untouched (alloc-free,
//     shard-locked); the backing is consulted only on a miss, and written
//     only behind (store.Put is an in-memory append; the store's flusher
//     owns the disk).
//   - Content-addressed with collision guards: store keys are FNV-64a
//     over the record's identity, and every payload carries the identity
//     fields verbatim so an FNV collision (or foreign record) degrades to
//     a miss, never a wrong answer.
//   - Versioned payloads: each record starts with a one-byte schema
//     version; a stale payload is skipped, not misread.
//
// What each adapter persists:
//
//   - CompileCache: the full persona result (ok, log, diagnostics). The
//     cached compile path consumes only those fields — the AST/design
//     pointers a fresh compile also carries are never read through the
//     cache — so a restored record is behaviourally identical.
//   - SimCache: the source text only (replay-style persistence). A
//     compiled sim.Program is a pointer graph that cannot round-trip
//     through disk, so the record is the input and warm start replays it
//     through the compile pipeline — paying the cost at boot, before
//     traffic, instead of on the first request.
//   - RetrievalIndex: the full precompiled image (pattern and word
//     postings, default shingle sets), keyed by a content hash of the
//     database, so a warm boot skips the index build entirely.
package memo

import (
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/rag"
	"repro/internal/store"
)

// Payload schema versions, one per record kind. Bump when the layout
// changes; old payloads are then ignored and rewritten on the next miss.
const (
	compilePayloadV   = 2 // v2: diagnostics carry Rule + Related positions
	simPayloadV       = 1
	retrievalPayloadV = 2 // v2: shingle sets are sorted hashes, not strings
)

// ---------- CompileCache ----------

// compileStoreKey content-addresses one compilation in the store.
func compileStoreKey(persona, filename, src string) uint64 {
	return store.HashStrings(persona, filename, src)
}

func encodeCompileRecord(persona, filename, src string, res compiler.Result) []byte {
	var e store.Encoder
	e.U8(compilePayloadV)
	e.String(persona)
	e.String(filename)
	e.String(src)
	e.Bool(res.Ok)
	e.String(res.Log)
	// nil-ness is preserved so a restored Result is DeepEqual to the
	// fresh one (tests compare them; consumers cannot tell apart).
	e.Bool(res.Diags == nil)
	e.Varint(int64(len(res.Diags)))
	for _, d := range res.Diags {
		e.Varint(int64(d.Severity))
		e.Varint(int64(d.Category))
		e.Varint(int64(d.Pos.Line))
		e.Varint(int64(d.Pos.Col))
		e.String(d.Symbol)
		e.String(d.Message)
		e.String(d.Suggestion)
		e.String(d.Rule)
		e.Bool(d.Related == nil)
		e.Varint(int64(len(d.Related)))
		for _, p := range d.Related {
			e.Varint(int64(p.Line))
			e.Varint(int64(p.Col))
		}
	}
	return e.Bytes()
}

// decodeCompileRecord parses a compile payload. The returned Result
// carries no AST/design pointers (they cannot round-trip through disk);
// no consumer of the cached compile path reads them.
func decodeCompileRecord(data []byte) (persona, filename, src string, res compiler.Result, ok bool) {
	d := store.NewDecoder(data)
	if d.U8() != compilePayloadV {
		return "", "", "", compiler.Result{}, false
	}
	persona = d.String()
	filename = d.String()
	src = d.String()
	res.Ok = d.Bool()
	res.Log = d.String()
	nilDiags := d.Bool()
	n := d.Varint()
	if d.Err() != nil || n < 0 || n > 1<<20 {
		return "", "", "", compiler.Result{}, false
	}
	if !nilDiags {
		res.Diags = make(diag.List, 0, n)
	}
	for i := int64(0); i < n; i++ {
		var dg diag.Diagnostic
		dg.Severity = diag.Severity(d.Varint())
		dg.Category = diag.Category(d.Varint())
		dg.Pos.Line = int(d.Varint())
		dg.Pos.Col = int(d.Varint())
		dg.Symbol = d.String()
		dg.Message = d.String()
		dg.Suggestion = d.String()
		dg.Rule = d.String()
		nilRelated := d.Bool()
		nr := d.Varint()
		if d.Err() != nil || nr < 0 || nr > 1<<20 {
			return "", "", "", compiler.Result{}, false
		}
		if !nilRelated {
			dg.Related = make([]diag.Pos, 0, nr)
		}
		for j := int64(0); j < nr; j++ {
			var p diag.Pos
			p.Line = int(d.Varint())
			p.Col = int(d.Varint())
			dg.Related = append(dg.Related, p)
		}
		res.Diags = append(res.Diags, dg)
	}
	if !d.Ok() {
		return "", "", "", compiler.Result{}, false
	}
	return persona, filename, src, res, true
}

// AttachStore hooks a durable backing under the cache and warm-starts
// it: persisted compile records load into memory (respecting the
// capacity bound), runtime misses consult the backing before
// recomputing, and fresh results are written behind. When personas are
// given, only their records warm-load — a cache fronting one persona
// must not fill (and FIFO-displace) itself with entries its lookups can
// never key; foreign-persona records stay reachable through the lazy
// miss path of whichever cache owns them. Attach before serving traffic
// — the backing field is not synchronized against concurrent lookups.
// Returns the number of records restored.
func (cc *CompileCache) AttachStore(b store.Backing, personas ...string) int {
	cc.backing = b
	want := map[string]bool{}
	for _, p := range personas {
		want[p] = true
	}
	n := 0
	b.Load(store.KindCompile, func(key uint64, data []byte) {
		persona, filename, src, res, ok := decodeCompileRecord(data)
		if !ok || (len(want) > 0 && !want[persona]) {
			return
		}
		k := compileKey{persona: persona, filename: filename, srcHash: HashSource(src)}
		cc.put(k, src, res)
		cc.loaded.Add(1)
		n++
	})
	return n
}

// Loaded reports how many entries this cache restored from its backing.
func (cc *CompileCache) Loaded() uint64 { return cc.loaded.Load() }

// backingGet consults the durable store for a memory miss, verifying the
// record's identity before trusting it, and promotes a hit into memory.
func (cc *CompileCache) backingGet(key compileKey, src string) (compiler.Result, bool) {
	data, ok := cc.backing.Get(store.KindCompile, compileStoreKey(key.persona, key.filename, src))
	if !ok {
		return compiler.Result{}, false
	}
	persona, filename, gotSrc, res, ok := decodeCompileRecord(data)
	if !ok || persona != key.persona || filename != key.filename || gotSrc != src {
		return compiler.Result{}, false // stale schema or FNV collision
	}
	cc.put(key, src, res)
	cc.loaded.Add(1)
	return res, true
}

// backingPut writes one fresh result behind. No-op without a backing.
func (cc *CompileCache) backingPut(key compileKey, src string, res compiler.Result) {
	if cc.backing == nil {
		return
	}
	cc.backing.Put(store.KindCompile,
		compileStoreKey(key.persona, key.filename, src),
		encodeCompileRecord(key.persona, key.filename, src, res))
}

// ---------- SimCache ----------

func encodeSimRecord(src string) []byte {
	var e store.Encoder
	e.U8(simPayloadV)
	e.String(src)
	return e.Bytes()
}

func decodeSimRecord(data []byte) (string, bool) {
	d := store.NewDecoder(data)
	if d.U8() != simPayloadV {
		return "", false
	}
	src := d.String()
	if !d.Ok() {
		return "", false
	}
	return src, true
}

// AttachStore hooks a durable backing under the sim cache. Every distinct
// source the cache compiles from now on is recorded (write-behind). With
// warm true, previously recorded sources are replayed through the compile
// pipeline immediately — the boot-time cost that buys hit-only serving
// afterwards; with warm false, the attach only records. Attach before
// serving traffic. Returns the number of sources replayed.
func (sc *SimCache) AttachStore(b store.Backing, warm bool) int {
	sc.backing = b
	if !warm {
		return 0
	}
	n := 0
	b.Load(store.KindSimSource, func(key uint64, data []byte) {
		src, ok := decodeSimRecord(data)
		if !ok || HashSource(src) != key {
			return // stale schema or collision: recompute on demand
		}
		sc.insertWarm(compileSimEntry(src))
		n++
	})
	return n
}

// Loaded reports how many sources this cache replayed from its backing.
func (sc *SimCache) Loaded() uint64 { return sc.loaded.Load() }

func (sc *SimCache) backingPut(src string) {
	if sc.backing == nil {
		return
	}
	sc.backing.Put(store.KindSimSource, HashSource(src), encodeSimRecord(src))
}

// ---------- RetrievalIndex ----------

// entriesIdentity serializes a rag.Database's full entry list — both
// the content address (hashed) and the collision guard (stored verbatim
// in the record and compared on restore, like the compile adapter's
// source field).
func entriesIdentity(entries []rag.Entry) []byte {
	var e store.Encoder
	for _, en := range entries {
		e.String(en.ID)
		e.Varint(int64(en.Category))
		e.String(en.Compiler)
		e.Varint(int64(len(en.Patterns)))
		for _, p := range en.Patterns {
			e.String(p)
		}
		e.String(en.LogExample)
		e.String(en.Guidance)
		e.String(en.Demonstration)
	}
	return e.Bytes()
}

func encodeRetrievalRecord(identity []byte, idx *RetrievalIndex) []byte {
	var e store.Encoder
	e.U8(retrievalPayloadV)
	e.String(string(identity))
	e.Varint(int64(len(idx.entries)))

	e.Varint(int64(len(idx.patterns)))
	for _, pp := range idx.patterns {
		e.String(pp.pat)
		e.Varint(int64(len(pp.entries)))
		for _, i := range pp.entries {
			e.Varint(int64(i))
		}
	}
	e.Varint(int64(len(idx.words)))
	for _, wp := range idx.words {
		e.String(wp.word)
		e.Varint(int64(len(wp.posts)))
		for _, p := range wp.posts {
			e.Varint(int64(p.entry))
			e.Varint(int64(p.count))
		}
	}
	// Only the eagerly built default shingle size is persisted; other
	// sizes rebuild on demand exactly as in the unpersisted index.
	defaultK, _ := rag.Fuzzy{}.Params()
	sets := idx.shingles[defaultK]
	e.Varint(int64(defaultK))
	e.Varint(int64(len(sets)))
	for _, set := range sets {
		e.Varint(int64(len(set)))
		for _, h := range set {
			e.Varint(int64(h))
		}
	}
	return e.Bytes()
}

// decodeRetrievalRecord rebuilds an index image over db's live entries.
// Any mismatch (schema, full entry-list identity, cardinality) rejects
// the record — an FNV key collision therefore degrades to a rebuild.
func decodeRetrievalRecord(data []byte, identity []byte, db *rag.Database, entries []rag.Entry) (*RetrievalIndex, bool) {
	d := store.NewDecoder(data)
	if d.U8() != retrievalPayloadV || d.String() != string(identity) || d.Varint() != int64(len(entries)) {
		return nil, false
	}
	idx := &RetrievalIndex{
		db:       db,
		entries:  entries,
		shingles: map[int][]cluster.Set{},
	}
	bound := int64(len(entries))
	np := d.Varint()
	if d.Err() != nil || np < 0 || np > 1<<20 {
		return nil, false
	}
	for i := int64(0); i < np; i++ {
		pp := patternPosting{pat: d.String()}
		n := d.Varint()
		if d.Err() != nil || n < 0 || n > bound {
			return nil, false
		}
		for j := int64(0); j < n; j++ {
			idx2 := d.Varint()
			if idx2 < 0 || idx2 >= bound {
				return nil, false
			}
			pp.entries = append(pp.entries, int(idx2))
		}
		idx.patterns = append(idx.patterns, pp)
	}
	nw := d.Varint()
	if d.Err() != nil || nw < 0 || nw > 1<<20 {
		return nil, false
	}
	for i := int64(0); i < nw; i++ {
		wp := wordPosting{word: d.String()}
		n := d.Varint()
		if d.Err() != nil || n < 0 || n > bound {
			return nil, false
		}
		for j := int64(0); j < n; j++ {
			en := d.Varint()
			cnt := d.Varint()
			if en < 0 || en >= bound || cnt < 0 {
				return nil, false
			}
			wp.posts = append(wp.posts, wordPost{entry: int(en), count: int(cnt)})
		}
		idx.words = append(idx.words, wp)
	}
	k := d.Varint()
	ns := d.Varint()
	if d.Err() != nil || k <= 0 || ns != bound {
		return nil, false
	}
	sets := make([]cluster.Set, ns)
	for i := int64(0); i < ns; i++ {
		n := d.Varint()
		if d.Err() != nil || n < 0 || n > 1<<20 {
			return nil, false
		}
		set := make(cluster.Set, n)
		for j := range set {
			set[j] = uint64(d.Varint())
			// Jaccard's merge needs strictly increasing hashes.
			if j > 0 && set[j] <= set[j-1] {
				return nil, false
			}
		}
		sets[i] = set
	}
	if !d.Ok() {
		return nil, false
	}
	idx.shingles[int(k)] = sets
	return idx, true
}

// NewPersistedRetrievalIndex returns a retrieval index for db, restored
// from the backing when a record content-addressed to db's exact entry
// list exists, otherwise built fresh and written behind. The restored
// index is structurally identical to a fresh build (postings and shingle
// sets are deterministic functions of the entries), so the
// indexed-equals-naive contract is unaffected.
func NewPersistedRetrievalIndex(db *rag.Database, b store.Backing) *RetrievalIndex {
	if b == nil {
		return NewRetrievalIndex(db)
	}
	entries := db.Entries()
	identity := entriesIdentity(entries)
	dbHash := store.HashBytes(identity)
	if data, ok := b.Get(store.KindRetrieval, dbHash); ok {
		if idx, ok := decodeRetrievalRecord(data, identity, db, entries); ok {
			idx.restored = true
			return idx
		}
	}
	idx := NewRetrievalIndex(db)
	b.Put(store.KindRetrieval, dbHash, encodeRetrievalRecord(identity, idx))
	return idx
}
