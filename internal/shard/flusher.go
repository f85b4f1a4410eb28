package shard

// Flusher is what is left of the removed thread-local buffered-ingest
// engine: its handles are plain batches.
//
// Deprecated: cmd/momentsbench compiles against it to time
// shard.buffered_ns_per_obs, and it goes when a [benchmark] change drops
// that row. Use Store.NewBatch.
type Flusher struct{ store *Store }

// Deprecated: see Flusher. FlusherConfig configures nothing.
type FlusherConfig struct{}

// Deprecated: see Flusher. NewFlusher wraps store.
func NewFlusher(store *Store, _ FlusherConfig) (*Flusher, error) { return &Flusher{store}, nil }

// Deprecated: see Flusher. Handle returns store.NewBatch().
func (f *Flusher) Handle() *Batch { return f.store.NewBatch() }

// Deprecated: see Flusher. Close does nothing.
func (f *Flusher) Close() error { return nil }
