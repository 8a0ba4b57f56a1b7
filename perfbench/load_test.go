package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStall stalls one request of an open-loop run for
// 400 ms. Timed from when each request was due, every arrival queued
// behind the stall shows it; timed from when it was sent, only the stalled
// request would.
func TestOpenLoopCountsStall(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(400 * time.Millisecond)
		}
	}))
	defer srv.Close()
	g := newLoadgen(1)
	g.base = srv.URL
	defer g.close()

	offsets := make([]float64, 60)
	for i := range offsets {
		offsets[i] = float64(i) * 0.01 // 100 arrivals per second
	}
	var fromDue, fromSend, lateness samples
	openLoop(offsets, &lateness, func(i int, due time.Time) {
		sent := time.Now()
		if _, ok := g.do("GET", "/", nil, http.StatusOK); !ok {
			t.Errorf("request %d failed", i)
		}
		fromDue.add(time.Since(due))
		fromSend.add(time.Since(sent))
	})

	slow := func(s *samples) int {
		k := 0
		for _, v := range s.v {
			if v > 100 {
				k++
			}
		}
		return k
	}
	if k := slow(&fromSend); k != 1 {
		t.Fatalf("timed from send, %d requests over 100 ms; want only the stalled one", k)
	}
	// Arrivals due in the first 300 ms of the stall wait at least 100 ms.
	if k := slow(&fromDue); k < 25 {
		t.Fatalf("timed from due, only %d requests over 100 ms; the stall is not counted", k)
	}
	if late := lateness.pct(100); late > 50 {
		t.Fatalf("dispatcher ran %.1f ms late; it must not wait for the stalled connection", late)
	}
}
