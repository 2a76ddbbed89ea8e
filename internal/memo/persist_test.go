package memo

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/rag"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoFlusher: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

const persistGood = `
module top_module(input clk, input [3:0] d, output reg [3:0] q);
	always @(posedge clk) q <= d;
endmodule
`

const persistBroken = `
module top_module(input a, output y)
	assign y = a;
endmodule
`

func TestCompileCachePersistRoundtrip(t *testing.T) {
	dir := t.TempDir()
	quartus, _ := compiler.ByName("quartus")

	// Cold process: compile through an attached cache, flush, close.
	st1 := openStore(t, dir)
	cc1 := NewCompileCache(0)
	if n := cc1.AttachStore(st1); n != 0 {
		t.Fatalf("fresh store loaded %d records", n)
	}
	comp1 := cc1.Cached(quartus)
	wantGood := comp1.Compile("main.v", persistGood)
	wantBroken := comp1.Compile("main.v", persistBroken)
	if err := st1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Warm process: attach restores both records; lookups hit without
	// recompiling, and the served fields match the fresh compile exactly.
	st2 := openStore(t, dir)
	defer st2.Close()
	cc2 := NewCompileCache(0)
	if n := cc2.AttachStore(st2); n != 2 {
		t.Fatalf("warm start loaded %d records, want 2", n)
	}
	comp2 := cc2.Cached(quartus)
	for _, tc := range []struct {
		src  string
		want compiler.Result
	}{{persistGood, wantGood}, {persistBroken, wantBroken}} {
		got := comp2.Compile("main.v", tc.src)
		if got.Ok != tc.want.Ok || got.Log != tc.want.Log ||
			!reflect.DeepEqual(got.Diags, tc.want.Diags) {
			t.Fatalf("restored result differs for %q", tc.src[:20])
		}
	}
	s := cc2.Stats()
	if s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("warm cache stats = %+v, want 2 hits 0 misses", s)
	}
	if cc2.Loaded() != 2 {
		t.Fatalf("Loaded = %d, want 2", cc2.Loaded())
	}
}

func TestCompileCacheBackingMissConsultsDisk(t *testing.T) {
	dir := t.TempDir()
	quartus, _ := compiler.ByName("quartus")
	st := openStore(t, dir)
	defer st.Close()

	// Two caches over one live backing: what the first compiles, the
	// second finds on its (memory) miss path — before any flush.
	cc1 := NewCompileCache(0)
	cc1.AttachStore(st)
	want := cc1.Cached(quartus).Compile("main.v", persistGood)

	cc2 := NewCompileCache(0)
	cc2.backing = st // attach without the eager load: isolate the lazy path
	got := cc2.Cached(quartus).Compile("main.v", persistGood)
	if got.Ok != want.Ok || got.Log != want.Log {
		t.Fatal("lazy backing consult served a different result")
	}
	if s := cc2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("lazy consult stats = %+v, want a hit", s)
	}
}

func TestCompileCacheBackingCollisionGuard(t *testing.T) {
	dir := t.TempDir()
	quartus, _ := compiler.ByName("quartus")
	st := openStore(t, dir)
	defer st.Close()

	// Plant a record at the key for persistGood whose payload identifies
	// a different source — the disk-level analogue of an FNV collision.
	key := compileStoreKey("Quartus", "main.v", persistGood)
	st.Put(store.KindCompile, key,
		encodeCompileRecord("Quartus", "main.v", persistBroken, compiler.Result{Ok: true, Log: "forged"}))

	cc := NewCompileCache(0)
	cc.backing = st
	got := cc.Cached(quartus).Compile("main.v", persistGood)
	if got.Log == "forged" {
		t.Fatal("collision guard failed: forged record served")
	}
	if s := cc.Stats(); s.Misses != 1 {
		t.Fatalf("collided lookup must miss and recompute: %+v", s)
	}
}

func TestCompileCacheStalePayloadSkipped(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	var e store.Encoder
	e.U8(99) // future schema
	e.String("who knows")
	st.Put(store.KindCompile, 12345, e.Bytes())

	cc := NewCompileCache(0)
	if n := cc.AttachStore(st); n != 0 {
		t.Fatalf("stale payload loaded: %d", n)
	}
}

func TestSimCachePersistWarmStart(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	sc1 := NewSimCache(0)
	sc1.AttachStore(st1, false)
	p1, _, _, _ := sc1.Program(persistGood)
	if p1 == nil {
		t.Fatal("source should compile")
	}
	sc1.Frontend(persistBroken) // broken sources are recorded too
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	sc2 := NewSimCache(0)
	if n := sc2.AttachStore(st2, true); n != 2 {
		t.Fatalf("warm start replayed %d sources, want 2", n)
	}
	if sc2.Loaded() != 2 {
		t.Fatalf("Loaded = %d, want 2", sc2.Loaded())
	}
	// The first lookup after warm start is a pure hit.
	p2, d2, _, _ := sc2.Program(persistGood)
	if p2 == nil || d2 == nil {
		t.Fatal("warm-started entry lost its program")
	}
	if s := sc2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm sim cache stats = %+v", s)
	}
	// warm=false records but does not replay.
	sc3 := NewSimCache(0)
	if n := sc3.AttachStore(st2, false); n != 0 || sc3.Len() != 0 {
		t.Fatalf("cold attach must not replay (n=%d len=%d)", n, sc3.Len())
	}
}

func TestPersistedRetrievalIndexRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db := rag.QuartusDB()
	logs := []string{
		"Error (10161): Verilog HDL error at main.v(3): object \"clk\" is not declared",
		"Error (10170): Verilog HDL syntax error at main.v(5) near text \";\"",
		"some log that matches nothing at all",
	}

	st1 := openStore(t, dir)
	fresh := NewPersistedRetrievalIndex(db, st1)
	if fresh.Restored() {
		t.Fatal("first build cannot be restored")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	restored := NewPersistedRetrievalIndex(db, st2)
	if !restored.Restored() {
		t.Fatal("second build should restore from the store")
	}
	// The restored image must reproduce the fresh index (and therefore
	// the naive scans) exactly, for every indexable strategy.
	for _, log := range logs {
		for _, strat := range []rag.Retriever{rag.ExactTag{}, rag.Keyword{}, rag.Fuzzy{}} {
			want := fresh.Wrap(strat).Retrieve(db, log, 4)
			got := restored.Wrap(strat).Retrieve(db, log, 4)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%T differs on %q:\nfresh:    %v\nrestored: %v", strat, log, want, got)
			}
		}
	}

	// The image is deterministic: two encodes of one index, and the
	// encode of the restored index, are byte-equal.
	identity := entriesIdentity(db.Entries())
	img := encodeRetrievalRecord(identity, fresh)
	if again := encodeRetrievalRecord(identity, fresh); !bytes.Equal(img, again) {
		t.Fatal("two encodes of the same index differ")
	}
	if re := encodeRetrievalRecord(identity, restored); !bytes.Equal(img, re) {
		t.Fatal("restored index encodes differently from the fresh one")
	}

	// A v1-tagged payload (string shingle sets) is rejected, and the
	// index is rebuilt and rewritten as the current image.
	v1 := append([]byte{1}, img[1:]...)
	st3 := openStore(t, t.TempDir())
	defer st3.Close()
	st3.Put(store.KindRetrieval, store.HashBytes(identity), v1)
	if rebuilt := NewPersistedRetrievalIndex(db, st3); rebuilt.Restored() {
		t.Fatal("a v1 payload must not restore")
	}
	if data, _ := st3.Get(store.KindRetrieval, store.HashBytes(identity)); !bytes.Equal(data, img) {
		t.Fatal("rebuild did not rewrite the v1 record with the current image")
	}
}

func TestPersistedRetrievalIndexRejectsForeignDB(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	_ = NewPersistedRetrievalIndex(rag.QuartusDB(), st)

	// A different database hashes differently: no restore, fresh build.
	other := rag.NewDatabase(rag.QuartusDB().Entries()[:3])
	idx := NewPersistedRetrievalIndex(other, st)
	if idx.Restored() {
		t.Fatal("foreign database must not restore another db's image")
	}
}
