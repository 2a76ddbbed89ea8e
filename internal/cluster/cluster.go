// Package cluster implements DBSCAN over Jaccard distance on token
// shingles. The paper's dataset-curation step uses exactly this pairing
// ("clustering using DBSCAN with Jaccard distance, grouping similar
// implementations to select representative examples", §3.4) to pick a
// diverse set of erroneous implementations for VerilogEval-syntax.
package cluster

import (
	"slices"
	"sort"
)

// Noise is the label DBSCAN assigns to points in no cluster.
const Noise = -1

// Set is a shingle set: the 64-bit FNV-1a hash of each distinct shingle,
// sorted ascending with no duplicates. Two sets are compared by a merge
// over their hashes, so Jaccard allocates nothing and touches each hash
// once.
type Set []uint64

// FNV-1a 64-bit parameters (the same family hash/fnv implements).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Shingles tokenizes src and returns the set of k-token shingles. Shingle
// sets are the standard representation for Jaccard similarity over code.
// Each shingle is hashed as its tokens joined by a single space; tokens
// never contain a space, so distinct token sequences hash distinct byte
// strings, and only a 64-bit collision can merge two shingles. Input with
// fewer than k tokens yields one shingle over all of them.
func Shingles(src string, k int) Set {
	if k <= 0 {
		k = 1
	}
	toks := tokenize(src)
	if len(toks) == 0 {
		return Set{}
	}
	if len(toks) < k {
		k = len(toks)
	}
	out := make(Set, 0, len(toks)-k+1)
	for i := 0; i+k <= len(toks); i++ {
		h := uint64(fnvOffset64)
		for j, t := range toks[i : i+k] {
			if j > 0 {
				h = (h ^ ' ') * fnvPrime64
			}
			for p := t.start; p < t.end; p++ {
				h = (h ^ uint64(src[p])) * fnvPrime64
			}
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// span is one token: the byte range src[start:end].
type span struct{ start, end int }

// tokenize is a lightweight code tokenizer: identifiers/numbers clump,
// punctuation splits, whitespace separates. Every token is a contiguous
// byte range of src, so it is returned as a span instead of a string.
func tokenize(src string) []span {
	var toks []span
	start := -1 // start of the identifier run in progress, or -1
	flush := func(i int) {
		if start >= 0 {
			toks = append(toks, span{start, i})
			start = -1
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush(i)
		case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9') || c == '_' || c == '\'':
			if start < 0 {
				start = i
			}
		default:
			flush(i)
			toks = append(toks, span{i, i + 1})
		}
	}
	flush(len(src))
	return toks
}

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of two sets,
// counting the intersection with a two-pointer merge. Two empty sets are
// defined as identical (similarity 1).
func Jaccard(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard similarity.
func JaccardDistance(a, b Set) float64 { return 1 - Jaccard(a, b) }

// DBSCAN clusters n points given a pairwise distance function. eps is the
// neighbourhood radius and minPts the core-point density threshold
// (including the point itself). The result assigns each point a cluster
// id starting at 0, or Noise.
func DBSCAN(n int, dist func(i, j int) float64, eps float64, minPts int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)

	neighbours := func(p int) []int {
		var out []int
		for q := 0; q < n; q++ {
			if dist(p, q) <= eps {
				out = append(out, q)
			}
		}
		return out
	}

	cluster := 0
	for p := 0; p < n; p++ {
		if visited[p] {
			continue
		}
		visited[p] = true
		nb := neighbours(p)
		if len(nb) < minPts {
			continue // stays noise unless absorbed later
		}
		labels[p] = cluster
		// Expand cluster via a work queue.
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == Noise {
				labels[q] = cluster // border point
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			labels[q] = cluster
			qnb := neighbours(q)
			if len(qnb) >= minPts {
				queue = append(queue, qnb...)
			}
		}
		cluster++
	}
	return labels
}

// Representatives picks one representative index per cluster (the point
// with the smallest summed distance to its cluster peers — a medoid) plus
// every noise point. This matches the paper's goal of "selecting
// representative examples while ensuring a diverse representation".
func Representatives(labels []int, dist func(i, j int) float64) []int {
	byCluster := map[int][]int{}
	for i, l := range labels {
		byCluster[l] = append(byCluster[l], i)
	}
	var out []int
	clusterIDs := make([]int, 0, len(byCluster))
	for id := range byCluster {
		clusterIDs = append(clusterIDs, id)
	}
	sort.Ints(clusterIDs)
	for _, id := range clusterIDs {
		members := byCluster[id]
		if id == Noise {
			out = append(out, members...)
			continue
		}
		best, bestSum := members[0], -1.0
		for _, i := range members {
			sum := 0.0
			for _, j := range members {
				sum += dist(i, j)
			}
			if bestSum < 0 || sum < bestSum {
				best, bestSum = i, sum
			}
		}
		out = append(out, best)
	}
	sort.Ints(out)
	return out
}
