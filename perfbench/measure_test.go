package main

import (
	"errors"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := tail(samples(99), 0.9); ok {
		t.Fatalf("p90 of 99 samples reported as %g; only 9 lie beyond it", v)
	}
	v, ok := tail(samples(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %g, %v; want 90, true", v, ok)
	}
	if _, ok := tail(nil, 0.5); ok {
		t.Fatal("median tail of no samples reported")
	}
}

func TestFailedOperationsAreCountedAndAddNoLatency(t *testing.T) {
	var c class
	c.add(10, nil)
	c.add(1000, errors.New("transport"))
	op := c.add(20, nil)
	c.add(30, nil)
	op.err = errors.New("answer check") // failed after the fact

	if c.attempted() != 4 || c.failed() != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", c.attempted(), c.failed())
	}
	lat := c.latencies()
	if len(lat) != 2 || lat[0] != 10 || lat[1] != 30 {
		t.Fatalf("latencies %v, want [10 30]", lat)
	}
	if m := median(lat); m != 20 {
		t.Fatalf("median %g, want 20", m)
	}

	r := newRun(config{})
	timed, untimed := r.class("a"), r.untimedClass("b")
	timed.ops, untimed.ops = c.ops, c.ops
	if got := r.completed(); got != 2 {
		t.Fatalf("completed %d, want 2: failed and untimed operations do not count", got)
	}
}
