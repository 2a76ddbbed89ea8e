package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// narrowBenchSrc is a ≤64-bit sequential design with comb logic, a case
// mux, and a shift — the shape of a typical curated problem.
const narrowBenchSrc = `
module alu(input clk, input rst, input [31:0] a, input [31:0] b, input [1:0] op,
           output reg [31:0] acc, output [31:0] comb, output zero);
	wire [31:0] sum = a + b;
	assign comb = op[0] ? (a & b) : sum ^ b;
	assign zero = acc == 0;
	always @(posedge clk) begin
		if (rst) acc <= 0;
		else begin
			case (op)
				2'b00: acc <= acc + a;
				2'b01: acc <= acc - b;
				2'b10: acc <= acc ^ sum;
				default: acc <= {acc[15:0], a[15:0]};
			endcase
		end
	end
endmodule`

// wideBenchSrc exercises the multi-word path: a [254:0] datapath with a
// bit-reverse for loop (255 dynamic bit stores per settle), a rotate
// concat, and a wide accumulator.
const wideBenchSrc = `
module wide(input clk, input [254:0] in, output reg [254:0] acc, output [254:0] rev);
	reg [254:0] r;
	integer i;
	always @(*) begin
		for (i = 0; i < 255; i = i + 1)
			r[i] = in[254 - i];
	end
	assign rev = r ^ {in[253:0], in[254]};
	always @(posedge clk)
		acc <= acc + rev;
endmodule`

func benchDesign(b *testing.B, src string) *sema.Design {
	b.Helper()
	file, pd := verilog.Parse(src)
	if pd.HasErrors() {
		b.Fatalf("parse: %s", pd.Summary())
	}
	d, ed := sema.Elaborate(file)
	if ed.HasErrors() {
		b.Fatalf("elab: %s", ed.Summary())
	}
	return d
}

// BenchmarkSimCompile measures the one-time lowering cost the program
// cache amortizes away.
func BenchmarkSimCompile(b *testing.B) {
	for _, bc := range []struct {
		name, src string
	}{
		{"narrow", narrowBenchSrc},
		{"wide", wideBenchSrc},
	} {
		design := benchDesign(b, bc.src)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(design); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimCycle measures one steady-state cycle — drive inputs,
// settle, clock pulse — on both backends. The compiled/narrow case is
// the allocation-free hot path the acceptance criteria pin at 0
// allocs/op and ≥5x over the walker.
func BenchmarkSimCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	widevec := bitvec.New(255)
	for i := 0; i < 255; i++ {
		if rng.Intn(2) == 1 {
			widevec.SetBitInPlace(i, true)
		}
	}
	compiled := func(d *sema.Design) *Simulator {
		s, err := New(d)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name  string
		src   string
		build func(*sema.Design) *Simulator
		drive func(b *testing.B, s *Simulator)
	}{
		{"narrow/compiled", narrowBenchSrc, compiled, driveNarrow},
		{"narrow/walker", narrowBenchSrc, NewReference, driveNarrow},
		{"wide/compiled", wideBenchSrc, compiled, nil},
		{"wide/walker", wideBenchSrc, NewReference, nil},
	}
	for _, bc := range cases {
		s := bc.build(benchDesign(b, bc.src))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.drive != nil {
					bc.drive(b, s)
					continue
				}
				if err := s.SetInput("in", widevec); err != nil {
					b.Fatal(err)
				}
				if err := s.Settle(); err != nil {
					b.Fatal(err)
				}
				if err := s.ClockPulse("clk"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchA = bitvec.FromUint64(32, 0xDEADBEEF)
var benchB = bitvec.FromUint64(32, 0x12345678)

func driveNarrow(b *testing.B, s *Simulator) {
	if err := s.SetInput("a", benchA); err != nil {
		b.Fatal(err)
	}
	if err := s.SetInput("b", benchB); err != nil {
		b.Fatal(err)
	}
	if err := s.SetInputUint("op", 2); err != nil {
		b.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		b.Fatal(err)
	}
	if err := s.ClockPulse("clk"); err != nil {
		b.Fatal(err)
	}
}
