package main

import (
	"strings"
	"testing"
)

// TestCheckBatchFloor: -compare passes at or above the 2x batch floor
// and otherwise fails with an error naming the measured ratio.
func TestCheckBatchFloor(t *testing.T) {
	for _, speedup := range []float64{2, 2.016, 3.5} {
		if err := checkBatchFloor(speedup); err != nil {
			t.Errorf("checkBatchFloor(%v) = %v, want nil", speedup, err)
		}
	}
	for speedup, ratio := range map[float64]string{0: "0.000", 1.2: "1.200", 1.9994: "1.999"} {
		err := checkBatchFloor(speedup)
		if err == nil {
			t.Fatalf("checkBatchFloor(%v) = nil, want an error", speedup)
		}
		if msg := err.Error(); !strings.Contains(msg, "batch_speedup "+ratio) || !strings.Contains(msg, "2x") {
			t.Errorf("checkBatchFloor(%v) = %q, want the ratio %s and the 2x floor", speedup, msg, ratio)
		}
	}
}
