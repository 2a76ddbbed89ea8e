package sim

import "testing"

// ieeeCheck is one hand-computed IEEE 1364 value: after driving in and
// settling, signal out must read want on both backends.
type ieeeCheck struct {
	in   map[string]uint64
	out  string
	want uint64
}

// TestEngineRegressions is the permanent home for every minimized
// walker-vs-engine divergence. Each entry started life as a fuzzer or
// field find, was shrunk by the internal/fuzz minimizer (or by hand),
// and must stay bit-identical across both backends forever. Entries
// with checks also pin both backends to hand-computed IEEE values. Add
// new finds here; never delete entries.
func TestEngineRegressions(t *testing.T) {
	cases := []struct {
		name   string
		clock  string
		cycles int
		seed   int64
		src    string
		checks []ieeeCheck
	}{
		{
			// The compiled engine stored q[4:1] from q's own slot
			// register: the bit-copy loop read source bits it had
			// already overwritten. Fixed by copy-on-alias in
			// compileSliceStore and an alias-safe
			// bitvec.StoreSliceOf.
			name: "alias_slice_store", clock: "clk", cycles: 16, seed: 5,
			src: `
module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`,
		},
		{
			// Two same-edge blocks each declaring 'integer i':
			// the walker ran both in one shared env, so block 1's
			// queued NBA targets were re-evaluated at commit time
			// with block 2's final i. Fixed by per-block envs in
			// walker fireEdge; the engine already gave each block
			// its own local slots.
			name: "shared_loop_var_nba", clock: "clk", cycles: 16, seed: 7,
			src: `
module m(input clk, input [7:0] d, output reg [7:0] q, output reg [7:0] r);
	integer i;
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1)
			q[i] <= d[i];
	end
	always @(posedge clk) begin
		for (i = 0; i < 6; i = i + 1)
			r[i] <= d[i];
	end
endmodule`,
		},
		{
			// Blocking self-alias through a full-width slice: the
			// RHS ident resolves to the destination's slot.
			name: "full_width_self_slice", clock: "", cycles: 16, seed: 11,
			src: `
module m(input [7:0] d, output reg [7:0] q);
	always @(*) begin
		q = d;
		q[7:0] = q;
	end
endmodule`,
		},
		{
			// Found by the generative fuzzer (seed 11 of the first
			// campaign): both backends once applied wire initializers
			// one-shot at reset — the walker in map iteration order —
			// so an init reading another initialized wire diverged
			// intermittently. Net inits are continuous assigns now,
			// recomputed every settle in both backends.
			name: "wire_init_chain", clock: "clk", cycles: 16, seed: 11,
			src: `
module m(input clk, input [3:0] d, output reg [7:0] q);
	wire [7:0] t0 = 8'h2e + (d << 3);
	wire [6:0] t1 = t0;
	always @(posedge clk)
		q <= t1;
endmodule`,
		},
		{
			// Dynamic-base self-aliasing part-select store: the
			// indexed store path must also snapshot the source.
			name: "dynamic_self_slice", clock: "", cycles: 16, seed: 13,
			src: `
module m(input [7:0] d, input [2:0] pos, output reg [15:0] w);
	always @(*) begin
		w = {d, d};
		w[pos +: 8] = w[7:0];
	end
endmodule`,
		},
		{
			// A pass@k candidate whose ?: branches are 32 and 8 bits
			// wide. The compiled engine once rejected it (the walker
			// took the selected branch's width); the result is the
			// wider branch's, and the store keeps its low 8 bits.
			name: "ternary_unsized_arith_under_not", cycles: 16, seed: 17,
			src: `
module m(input [7:0] in, output [7:0] out);
	assign out = ~(in[7] ? (in - 1) : in);
endmodule`,
			checks: []ieeeCheck{
				{in: map[string]uint64{"in": 0x80}, out: "out", want: 0x80},
				{in: map[string]uint64{"in": 0x05}, out: "out", want: 0xfa},
				{in: map[string]uint64{"in": 0x00}, out: "out", want: 0xff},
			},
		},
		{
			// ?: as a concatenation operand: the concat is 5 bits
			// wide whichever branch is taken, which the leading 1'b1
			// makes observable (the old walker rule gave 3 bits).
			name: "ternary_width_in_concat", cycles: 16, seed: 19,
			src: `
module m(input s, input [3:0] a4, input [1:0] b2, output [7:0] y);
	assign y = {1'b1, {s ? a4 : b2, 1'b1}};
endmodule`,
			checks: []ieeeCheck{
				{in: map[string]uint64{"s": 0, "a4": 0xa, "b2": 3}, out: "y", want: 0x27},
				{in: map[string]uint64{"s": 1, "a4": 0xa, "b2": 3}, out: "y", want: 0x35},
			},
		},
		{
			// A nested ?: chain: the inner result is max(2, 1) bits,
			// the outer max(4, 2), whichever arm is selected.
			name: "nested_ternary_chain", cycles: 16, seed: 23,
			src: `
module m(input s1, input s2, input [3:0] a4, input [1:0] b2, input c1, output [7:0] y);
	assign y = {1'b1, s1 ? a4 : s2 ? b2 : c1};
endmodule`,
			checks: []ieeeCheck{
				{in: map[string]uint64{"s1": 0, "s2": 0, "c1": 1}, out: "y", want: 0x11},
				{in: map[string]uint64{"s1": 0, "s2": 1, "b2": 2}, out: "y", want: 0x12},
				{in: map[string]uint64{"s1": 1, "a4": 0xc}, out: "y", want: 0x1c},
			},
		},
		{
			// ?: as a comparison operand: ~ inverts all 4 bits of the
			// 4-bit result, so b2 = 2'b11 compares as 4'b1100.
			name: "ternary_comparison_operand", cycles: 16, seed: 29,
			src: `
module m(input s, input [3:0] a4, input [1:0] b2, output eq);
	assign eq = (~(s ? a4 : b2)) == 4'b1100;
endmodule`,
			checks: []ieeeCheck{
				{in: map[string]uint64{"s": 0, "b2": 3}, out: "eq", want: 1},
				{in: map[string]uint64{"s": 0, "b2": 2}, out: "eq", want: 0},
				{in: map[string]uint64{"s": 1, "a4": 3}, out: "eq", want: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffBoth(t, tc.src, tc.clock, tc.cycles, tc.seed)
			for _, s := range bothBackends(t, buildDesign(t, tc.src)) {
				for _, c := range tc.checks {
					for name, v := range c.in {
						if err := s.SetInputUint(name, v); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Settle(); err != nil {
						t.Fatal(err)
					}
					if got := s.Get(c.out).Uint64(); got != c.want {
						t.Errorf("%s: %s = %#x with %v, want %#x", s.name, c.out, got, c.in, c.want)
					}
				}
			}
		})
	}
}
