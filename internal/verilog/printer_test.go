package verilog

import (
	"strings"
	"testing"
)

func TestPrintMinimal(t *testing.T) {
	file := mustParse(t, "module top; endmodule")
	out := Print(file)
	if !strings.Contains(out, "module top;") || !strings.Contains(out, "endmodule") {
		t.Fatalf("bad print:\n%s", out)
	}
}

func TestPrintRoundTripReparses(t *testing.T) {
	srcs := []string{
		`module m(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = a ^ b;
endmodule`,
		`module fsm(input clk, input rst, input in, output reg out);
	reg [1:0] state, next;
	always @(posedge clk) begin
		if (rst)
			state <= 2'b00;
		else
			state <= next;
	end
	always @(*) begin
		case (state)
			2'b00: next = in ? 2'b01 : 2'b00;
			2'b01, 2'b10: next = 2'b10;
			default: next = 2'b00;
		endcase
		out = state == 2'b10;
	end
endmodule`,
		`module rev(input [99:0] in, output reg [99:0] out);
	always @(*) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] = in[99 - i];
	end
endmodule`,
		`module ps(input [31:0] in, input [4:0] sel, output [7:0] y, output [7:0] z);
	assign y = in[sel +: 8];
	assign z = {4{in[1:0]}};
endmodule`,
		"`timescale 1ns/1ps\nmodule t(input a, output y);\n\tassign y = ~a;\nendmodule",
	}
	for _, src := range srcs {
		file := mustParse(t, src)
		printed := Print(file)
		reparsed, diags := Parse(printed)
		if diags.HasErrors() {
			t.Fatalf("printed source does not re-parse: %s\nprinted:\n%s", diags.Summary(), printed)
		}
		// Second print must be a fixpoint: print(parse(print(x))) == print(x).
		again := Print(reparsed)
		if again != printed {
			t.Fatalf("printer not idempotent:\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
	}
}

// TestFormatRoundTrip checks the printer's core contract on the statement
// and expression forms the fuzz minimizer prints: Print output re-parses
// cleanly, and printing the re-parsed AST reproduces the same text (fixed
// point after one canonicalization pass).
func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		`module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`,
		`module m(input [7:0] a, input [7:0] b, output [7:0] y, output c);
	wire [8:0] s = a + b;
	assign y = s[7:0];
	assign c = s[8];
endmodule`,
		`module m(input clk, input rst, input in, output reg out);
	reg [1:0] state;
	always @(posedge clk or posedge rst) begin
		if (rst)
			state <= 2'b00;
		else
			case (state)
				2'b00: state <= in ? 2'b01 : 2'b00;
				2'b01, 2'b10: state <= 2'b10;
				default: state <= 2'b00;
			endcase
	end
	always @(*) out = state == 2'b10;
endmodule`,
		`module m(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	always @(posedge clk)
		for (i = 0; i < 8; i = i + 1)
			q[i] <= d[7 - i];
endmodule`,
		`module m(input [15:0] in, input [3:0] base, output [3:0] lo, output [3:0] hi);
	assign lo = in[base +: 4];
	assign hi = in[base -: 4];
endmodule`,
		`module m(input [3:0] a, output [15:0] y);
	parameter W = 4;
	localparam D = W * 2;
	assign y = {D{a[0]}} | {a, a, a, a};
endmodule`,
		`module m(input [7:0] a, output signed [8:0] y);
	assign y = $signed(a) + $signed(4'b1010);
endmodule`,
		`module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin : blk
		integer i;
		for (i = 0; i < 4; i = i + 1)
			q[i] <= d[i] & ~d[i + 4];
	end
endmodule`,
	}
	for i, src := range srcs {
		file, diags := Parse(src)
		if diags.HasErrors() {
			t.Fatalf("case %d: seed source does not parse: %s", i, diags.Summary())
		}
		once := Print(file)
		file2, diags := Parse(once)
		if diags.HasErrors() {
			t.Fatalf("case %d: printed output does not re-parse: %s\n%s", i, diags.Summary(), once)
		}
		twice := Print(file2)
		if once != twice {
			t.Fatalf("case %d: printer is not a fixed point.\nfirst:\n%s\nsecond:\n%s", i, once, twice)
		}
	}
}

func TestPrintPreservesModuleShape(t *testing.T) {
	src := `module m #(parameter W = 8) (
	input clk,
	input [W-1:0] d,
	output reg [W-1:0] q
);
	localparam HALF = W / 2;
	always @(posedge clk)
		q <= d;
endmodule`
	file := mustParse(t, src)
	printed := Print(file)
	reparsed, diags := Parse(printed)
	if diags.HasErrors() {
		t.Fatalf("re-parse failed: %s\n%s", diags.Summary(), printed)
	}
	orig, re := file.Modules[0], reparsed.Modules[0]
	if orig.Name != re.Name {
		t.Fatalf("module name lost")
	}
	if len(orig.Ports) != len(re.Ports) {
		t.Fatalf("ports %d -> %d", len(orig.Ports), len(re.Ports))
	}
	for i := range orig.Ports {
		if orig.Ports[i].Name != re.Ports[i].Name || orig.Ports[i].Dir != re.Ports[i].Dir {
			t.Fatalf("port %d changed: %+v vs %+v", i, orig.Ports[i], re.Ports[i])
		}
	}
}

func TestExprStringForms(t *testing.T) {
	cases := map[string]string{
		"a + b * c":  "(a + (b * c))",
		"a ? b : c":  "(a ? b : c)",
		"{a, b}":     "{a, b}",
		"{3{a}}":     "{3{a}}",
		"x[7:0]":     "x[7:0]",
		"x[i +: 8]":  "x[i +: 8]",
		"~&x":        "~&x",
		"$signed(a)": "$signed(a)",
		"in[99 - i]": "in[(99 - i)]",
	}
	for src, want := range cases {
		full := "module m(input a, output y); assign y = " + src + "; endmodule"
		file, diags := Parse(full)
		if diags.HasErrors() {
			t.Fatalf("fixture %q: %s", src, diags.Summary())
		}
		as := file.Modules[0].Items[0].(*AssignItem)
		if got := ExprString(as.RHS); got != want {
			t.Errorf("ExprString(%q) = %q, want %q", src, got, want)
		}
	}
}
