package core

// DeltaBuffer forwards to the tracker's own ingestion: AddEvents is
// UpdateEvents, and Flush and Release do nothing.
//
// Deprecated: it was the handle of a delta-buffered ingestion mode that is
// gone; the name remains because the frozen repository benchmark
// (benchmarks/) calls it. Call Tracker.UpdateEvents.
type DeltaBuffer struct{ t *Tracker }

// NewDeltaBuffer returns a DeltaBuffer forwarding to t.
//
// Deprecated: see DeltaBuffer.
func (t *Tracker) NewDeltaBuffer() *DeltaBuffer { return &DeltaBuffer{t} }

// AddEvents ingests events at once through Tracker.UpdateEvents.
func (d *DeltaBuffer) AddEvents(events []Event) { d.t.UpdateEvents(events) }

// Flush does nothing: AddEvents has already ingested.
func (d *DeltaBuffer) Flush() {}

// Release does nothing.
func (d *DeltaBuffer) Release() {}
