package fixer

import (
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestCountWordDoesNotAllocate(t *testing.T) {
	src := strings.Repeat("module top_module(); end endmodule\n", 8)
	if n := testing.AllocsPerRun(100, func() { CountWord(src, "module") }); n != 0 {
		t.Errorf("CountWord allocates %.0f times per call, want 0", n)
	}
}

// FuzzCountWord checks CountWord against the \b...\b regexp count. The
// regexp compares runes and CountWord compares bytes; they can disagree
// only where the pattern holds U+FFFD, which the regexp also matches
// against an invalid byte, so those inputs are skipped, as are words the
// regexp package rejects. Plain go test runs the seeds below.
func FuzzCountWord(f *testing.F) {
	for _, c := range []struct{ s, word string }{
		{"module top_module(input a); endmodule", "module"},
		{"endmodule endmodule", "endmodule"},
		{"endmodule\nendmodule\n", "module"},
		{"end_end end", "end"},
		{"endend", "end"},
		{"end", "end"},
		{"end begin end", "end"},
		{"begin x end", "begin"},
		{"éendé", "end"},
		{"end€ end", "end"},
		{"aaa aa", "aa"},
		{"a.a.a", ".a"},
		{"x y", ""},
		{"", ""},
	} {
		f.Add(c.s, c.word)
	}
	f.Fuzz(func(t *testing.T, s, word string) {
		if strings.ContainsRune(word, utf8.RuneError) && !utf8.ValidString(s) {
			t.Skip()
		}
		oracle, err := regexp.Compile(`\b` + regexp.QuoteMeta(word) + `\b`)
		if err != nil {
			t.Skip()
		}
		if got, want := CountWord(s, word), len(oracle.FindAllStringIndex(s, -1)); got != want {
			t.Errorf("CountWord(%q, %q) = %d, regexp counts %d", s, word, got, want)
		}
	})
}
