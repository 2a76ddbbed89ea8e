package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fnvHash is hash/fnv's FNV-1a over s: the hash Shingles must give a
// shingle whose tokens, joined by one space, spell s.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func has(s Set, shingle string) bool {
	_, ok := slices.BinarySearch(s, fnvHash(shingle))
	return ok
}

func TestShingles(t *testing.T) {
	s := Shingles("assign y = a & b ;", 2)
	if !has(s, "assign y") {
		t.Errorf("missing shingle 'assign y': %v", s)
	}
	if !has(s, "& b") {
		t.Errorf("missing shingle '& b': %v", s)
	}
}

func TestShinglesShortInput(t *testing.T) {
	s := Shingles("assign", 4)
	if len(s) != 1 {
		t.Fatalf("short input should produce one shingle: %v", s)
	}
	if len(Shingles("", 3)) != 0 {
		t.Fatal("empty input should produce no shingles")
	}
}

func TestJaccardBasics(t *testing.T) {
	a := Shingles("assign y = a & b;", 2)
	if Jaccard(a, a) != 1 {
		t.Error("self similarity must be 1")
	}
	b := Shingles("always @(posedge clk) q <= d;", 2)
	if sim := Jaccard(a, b); sim > 0.2 {
		t.Errorf("unrelated code similarity %.2f too high", sim)
	}
	if Jaccard(Set{}, Set{}) != 1 {
		t.Error("two empty sets are identical by definition")
	}
}

func TestJaccardSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a := randSet(rng)
		b := randSet(rng)
		if Jaccard(a, b) != Jaccard(b, a) {
			t.Fatal("Jaccard must be symmetric")
		}
		d := JaccardDistance(a, b)
		if d < 0 || d > 1 {
			t.Fatalf("distance %f out of [0,1]", d)
		}
	}
}

func randSet(rng *rand.Rand) Set {
	var words []string
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		words = append(words, fmt.Sprintf("tok%d", rng.Intn(30)))
	}
	return Shingles(strings.Join(words, " "), 1)
}

// oracleShingles and oracleJaccard are the string-set implementation the
// hashed Set replaced, kept as the differential oracle: tokens are joined
// by one space into map keys, and the intersection is counted by lookup.
func oracleShingles(src string, k int) map[string]struct{} {
	toks := oracleTokenize(src)
	out := map[string]struct{}{}
	if k <= 0 {
		k = 1
	}
	if len(toks) < k {
		if len(toks) > 0 {
			out[strings.Join(toks, " ")] = struct{}{}
		}
		return out
	}
	for i := 0; i+k <= len(toks); i++ {
		out[strings.Join(toks[i:i+k], " ")] = struct{}{}
	}
	return out
}

func oracleTokenize(src string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush()
		case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9') || c == '_' || c == '\'':
			cur.WriteByte(c)
		default:
			flush()
			toks = append(toks, string(c))
		}
	}
	flush()
	return toks
}

func oracleJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for s := range a {
		if _, ok := b[s]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// FuzzShingleJaccard checks the hashed sets against the string-set
// oracle: each Set is strictly increasing with one hash per distinct
// shingle, and Jaccard is bit-identical to the oracle's.
func FuzzShingleJaccard(f *testing.F) {
	f.Add("assign y = a & b;", "assign y = a | b;", uint8(2))
	f.Add("module m(input a, output y); assign y = ~a; endmodule", "module m; endmodule", uint8(3))
	f.Add("", "", uint8(0))
	f.Add("a a a a a a", "a", uint8(4))
	f.Add("always @(posedge clk) q <= 8'h00;", "\xc3\xa9 \t\r\n x_1", uint8(1))
	f.Fuzz(func(t *testing.T, a, b string, kb uint8) {
		k := int(kb%5) + 1
		sa, sb := Shingles(a, k), Shingles(b, k)
		oa, ob := oracleShingles(a, k), oracleShingles(b, k)
		for _, c := range []struct {
			set    Set
			oracle map[string]struct{}
		}{{sa, oa}, {sb, ob}} {
			for i := 1; i < len(c.set); i++ {
				if c.set[i-1] >= c.set[i] {
					t.Fatalf("set not strictly increasing at %d: %v", i, c.set)
				}
			}
			if len(c.set) != len(c.oracle) {
				t.Fatalf("k=%d: %d hashes, oracle has %d shingles", k, len(c.set), len(c.oracle))
			}
		}
		if got, want := Jaccard(sa, sb), oracleJaccard(oa, ob); got != want {
			t.Fatalf("k=%d: Jaccard = %v, oracle %v", k, got, want)
		}
	})
}

// TestDBSCANTwoBlobs clusters two well-separated groups plus an outlier.
func TestDBSCANTwoBlobs(t *testing.T) {
	// 1-D points: cluster A around 0, cluster B around 10, outlier at 100.
	points := []float64{0, 0.1, 0.2, 0.3, 10, 10.1, 10.2, 100}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 0.5, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] != labels[3] {
		t.Errorf("cluster A fragmented: %v", labels)
	}
	if labels[4] != labels[5] || labels[5] != labels[6] {
		t.Errorf("cluster B fragmented: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Errorf("clusters merged: %v", labels)
	}
	if labels[7] != Noise {
		t.Errorf("outlier not noise: %v", labels)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	points := []float64{0, 10, 20, 30}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 1, 2)
	for i, l := range labels {
		if l != Noise {
			t.Errorf("point %d should be noise, got %d", i, l)
		}
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	n := 20
	dist := func(i, j int) float64 { return 0.01 }
	labels := DBSCAN(n, dist, 0.5, 3)
	for i := 1; i < n; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("all points should share one cluster: %v", labels)
		}
	}
}

func TestDBSCANEmpty(t *testing.T) {
	labels := DBSCAN(0, func(i, j int) float64 { return 0 }, 0.5, 2)
	if len(labels) != 0 {
		t.Fatal("empty input should give empty labels")
	}
}

func TestRepresentativesOnePerClusterPlusNoise(t *testing.T) {
	points := []float64{0, 0.1, 0.2, 10, 10.1, 100}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 0.5, 2)
	reps := Representatives(labels, dist)
	// two clusters -> 2 reps, plus the noise point
	if len(reps) != 3 {
		t.Fatalf("got %d representatives (%v), want 3", len(reps), reps)
	}
	seen := map[int]bool{}
	for _, r := range reps {
		seen[labels[r]] = true
	}
	if !seen[Noise] {
		t.Error("noise point must be kept")
	}
}

// TestDBSCANDeterministic verifies stable output across runs.
func TestDBSCANDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := make([]float64, 40)
	for i := range points {
		points[i] = rng.Float64() * 20
	}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	first := DBSCAN(len(points), dist, 1.0, 3)
	second := DBSCAN(len(points), dist, 1.0, 3)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("DBSCAN not deterministic")
		}
	}
}

// TestSimilarCodeClusters is the end-use property: near-duplicate Verilog
// fragments cluster together, distinct ones do not.
func TestSimilarCodeClusters(t *testing.T) {
	variants := []string{
		"module m(input a, output y); assign y = ~a; endmodule",
		"module m(input a, output y); assign y = ~a ; endmodule",
		"module m(input a, output y);\n assign y = ~a;\nendmodule",
		"module c(input clk, input rst, output reg [7:0] q); always @(posedge clk) q <= rst ? 0 : q + 1; endmodule",
		"module c(input clk, input rst, output reg [7:0] q); always @(posedge clk) q <= rst ? 8'h00 : q + 1; endmodule",
	}
	sets := make([]Set, len(variants))
	for i, v := range variants {
		sets[i] = Shingles(v, 3)
	}
	dist := func(i, j int) float64 { return JaccardDistance(sets[i], sets[j]) }
	labels := DBSCAN(len(variants), dist, 0.4, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("near-duplicates split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Errorf("counter variants split: %v", labels)
	}
	if labels[0] == labels[3] && labels[0] != Noise {
		t.Errorf("distinct circuits merged: %v", labels)
	}
}
