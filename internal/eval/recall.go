package eval

// RecallAtK measures how much of a reference top-k an approximate result
// list recovered: |approx ∩ exact[:k]| / |exact[:k]|, with both lists
// truncated to their first k entries and duplicates within a list
// counted once. It is the recall@k of the approximate-search literature,
// where `exact` is the ground-truth ranking and `approx` the candidate
// ranking under evaluation.
//
// An empty reference yields 1: there was nothing to recall, so nothing
// was missed (the convention keeps averages over query batches from
// being poisoned by queries with no true hits).
func RecallAtK(approx, exact []int, k int) float64 {
	if k > 0 {
		if len(exact) > k {
			exact = exact[:k]
		}
		if len(approx) > k {
			approx = approx[:k]
		}
	}
	if len(exact) == 0 {
		return 1
	}
	want := make(map[int]bool, len(exact))
	for _, id := range exact {
		want[id] = true
	}
	hit := 0
	for _, id := range approx {
		if want[id] {
			hit++
			delete(want, id) // count each reference item at most once
		}
	}
	return float64(hit) / float64(len(exact))
}
