package dist

import (
	"errors"
	"fmt"

	"strgindex/internal/parallel"
)

// ErrMatrix tags failures of the batch distance-matrix helpers, so callers
// can distinguish a poisoned matrix (for example a dimension mismatch
// inside a worker) from their own errors with errors.Is.
var ErrMatrix = errors.New("dist: matrix computation failed")

// CrossMatrix computes the rectangular distance matrix
// d[i][j] = m(a[i], b[j]) in parallel over the given worker budget — the
// item × centroid pass at the heart of every EM/KM/KHM iteration and of
// the index's cluster descent. Every cell is written by exactly one
// worker, so results are identical to a sequential evaluation.
//
// A panic inside the metric (such as Norm's dimension-mismatch panic) is
// recovered by the pool and returned as an error wrapping ErrMatrix
// instead of crashing the process; the matrix is invalid in that case.
func CrossMatrix(a, b []Sequence, m Metric, workers int) ([][]float64, error) {
	na, nb := len(a), len(b)
	d := make([][]float64, na)
	cells := make([]float64, na*nb)
	for i := range d {
		d[i] = cells[i*nb : (i+1)*nb]
	}
	err := parallel.ForEach(workers, na, func(i int) error {
		row := d[i]
		for j := 0; j < nb; j++ {
			row[j] = m(a[i], b[j])
		}
		return nil
	})
	if err != nil {
		return nil, matrixErr(err)
	}
	return d, nil
}

func matrixErr(err error) error {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %v (sequence %d)", ErrMatrix, pe.Value, pe.Index)
	}
	return fmt.Errorf("%w: %w", ErrMatrix, err)
}
