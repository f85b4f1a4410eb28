// Package cube implements a Druid-like in-memory data cube (paper Fig. 1,
// §7.1): one pre-aggregated summary per combination of dimension values.
// Roll-up queries merge the summaries of every cell matching a filter —
// query time is (cells scanned) × (per-merge cost) + (estimation cost),
// which is precisely the regime the moments sketch targets. A native sum
// aggregate is maintained per cell as the lower-bound baseline of Fig. 11.
//
// Cells are populated pointwise (Ingest). Query merges every cell matching
// a set of filters into one aggregate; QuerySum is the native sum/count
// baseline over the same cells. The experiments harness drives the cube;
// the serving layer does not use it.
package cube
