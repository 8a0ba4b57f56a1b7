package pager

import "time"

// Tracker accumulates the pool activity attributable to one caller — one
// SQL statement execution, typically. The executor hands a Tracker down the
// read path (PagedTable.GetTracked/ScanTracked → File.PinTracked →
// Pool.pin), so a request trace can report exactly how many page faults it
// caused and how long their disk reads took, rather than guessing from
// process-wide counter deltas. A nil *Tracker is accepted everywhere and
// recorded nowhere.
//
// Trackers are not synchronized: each belongs to a single executing
// statement. The pool touches it only on the caller's own goroutine (the
// fault read happens on the pinning goroutine).
type Tracker struct {
	Faults      int64 // pins served by faulting the page from disk
	FaultNs     int64 // total disk-read time of those faults
	Evictions   int64 // resident pages this caller's faults displaced
	Writebacks  int64 // displaced pages that were dirty and had to be written
	WritebackNs int64 // total write time of those writebacks
}

func (tk *Tracker) noteFault(d time.Duration) {
	if tk != nil {
		tk.Faults++
		tk.FaultNs += d.Nanoseconds()
	}
}

func (tk *Tracker) noteEviction() {
	if tk != nil {
		tk.Evictions++
	}
}

func (tk *Tracker) noteWriteback(d time.Duration) {
	if tk != nil {
		tk.Writebacks++
		tk.WritebackNs += d.Nanoseconds()
	}
}
