package sim

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/verilog"
)

func watchdogDesign(t *testing.T) *sema.Design {
	t.Helper()
	src := `module top_module(input clk, input [3:0] in, output reg [3:0] out);
  wire [3:0] next = in ^ 4'b0101;
  always @(posedge clk) out <= next;
endmodule
`
	mod, diags := verilog.Parse(src)
	if mod == nil {
		t.Fatalf("parse: %v", diags)
	}
	d, derr := sema.Elaborate(mod)
	if d == nil {
		t.Fatalf("elaborate: %v", derr)
	}
	return d
}

// TestWatchdogStepBudget: each Settle (and each of ClockPulse's three
// internal settles) consumes a step; exceeding the budget cancels the
// run with a typed watchdog error on both backends.
func TestWatchdogStepBudget(t *testing.T) {
	for _, sm := range bothBackends(t, watchdogDesign(t)) {
		eng := sm.name
		sm.SetWatchdog(resilience.NewWatchdog(0, 4))
		if err := sm.ClockPulse("clk"); err != nil { // 3 steps
			t.Fatalf("%s: first pulse: %v", eng, err)
		}
		err := sm.ClockPulse("clk") // steps 4, 5: trips mid-pulse
		if err == nil || !resilience.IsWatchdog(err) {
			t.Fatalf("%s: over-budget pulse err = %v", eng, err)
		}
		sm.SetWatchdog(nil) // disarmed: runs freely again
		if err := sm.ClockPulse("clk"); err != nil {
			t.Fatalf("%s: disarmed pulse: %v", eng, err)
		}
	}
}

// TestWatchdogWallClockUnderStall: an injected sim.stall plus a small
// wall budget cancels the simulation instead of letting it run away.
func TestWatchdogWallClockUnderStall(t *testing.T) {
	fault.Install(fault.MustParse("sim.stall:1:20ms", 1))
	defer fault.Uninstall()
	sm, err := New(watchdogDesign(t))
	if err != nil {
		t.Fatal(err)
	}
	sm.SetWatchdog(resilience.NewWatchdog(5*time.Millisecond, 0))
	for i := 0; i < 3 && err == nil; i++ {
		err = sm.Settle()
	}
	if err == nil || !resilience.IsWatchdog(err) {
		t.Fatalf("stalled sim not canceled: %v", err)
	}
}
