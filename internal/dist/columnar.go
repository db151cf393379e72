package dist

import "fmt"

// This file implements the columnar execution layout under the distance
// engine: a Block is one sequence's attribute samples flattened into a
// single contiguous float64 buffer, row-major (sample i's vector occupies
// Data[i*Dim : (i+1)*Dim]). The DP kernels in batch.go stream Blocks
// instead of chasing []Vec slice headers, so a leaf scan walks memory
// linearly — the layout the hardware prefetcher wants.
//
// Blocks carry exactly the float64 bits of the Sequence they were built
// from, and the block kernels mirror the sequence kernels' arithmetic
// operation for operation, so switching layouts never moves a single bit
// of any distance value (property- and fuzz-tested in columnar_test.go
// and fuzz_test.go).

// Block is the columnar form of a Sequence: n samples of dim float64s in
// one contiguous buffer. The zero Block is an empty sequence.
type Block struct {
	data []float64
	n    int
	dim  int
}

// Len returns the number of samples.
func (b Block) Len() int { return b.n }

// Dim returns the per-sample dimensionality (0 for an empty block).
func (b Block) Dim() int { return b.dim }

// Data returns the backing buffer, row-major. Callers must not mutate it:
// sequences restored as views (see Sequence) share this memory.
func (b Block) Data() []float64 { return b.data }

// Row returns sample i as a Vec view into the buffer.
func (b Block) Row(i int) Vec {
	return Vec(b.data[i*b.dim : (i+1)*b.dim])
}

// FromSequence flattens s into a freshly allocated Block. It panics if the
// sample dimensions are ragged — such a sequence would panic inside Norm
// anyway, so the layout conversion surfaces the programming error at
// build time instead of mid-query.
func FromSequence(s Sequence) Block {
	if len(s) == 0 {
		return Block{}
	}
	dim := len(s[0])
	b := Block{data: make([]float64, len(s)*dim), n: len(s), dim: dim}
	for i, v := range s {
		if len(v) != dim {
			panic(fmt.Sprintf("dist: ragged sequence: sample %d has dim %d, want %d", i, len(v), dim))
		}
		copy(b.data[i*dim:(i+1)*dim], v)
	}
	return b
}

// BlockOf wraps an existing row-major buffer as a Block without copying —
// the snapshot-load path, where the container already holds the flattened
// column data. len(data) must equal n*dim.
func BlockOf(data []float64, n, dim int) (Block, error) {
	if n < 0 || dim < 0 || len(data) != n*dim {
		return Block{}, fmt.Errorf("dist: block of %d floats cannot hold %d×%d samples", len(data), n, dim)
	}
	if n == 0 {
		return Block{}, nil
	}
	return Block{data: data, n: n, dim: dim}, nil
}

// Sequence returns s as a []Vec of views sharing the block's buffer: the
// float64 bits are the originals, only the slice headers are new. An empty
// block returns nil, matching the zero Sequence. The views keep every
// pointer-based code path (summaries, hashes, snapshots, non-columnar
// kernels) working unchanged on columnar storage — one copy of the data,
// two access paths.
func (b Block) Sequence() Sequence {
	if b.n == 0 {
		return nil
	}
	s := make(Sequence, b.n)
	for i := range s {
		s[i] = b.Row(i)
	}
	return s
}
