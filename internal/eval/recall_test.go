package eval

import "testing"

func TestRecallAtK(t *testing.T) {
	cases := []struct {
		name          string
		approx, exact []int
		k             int
		want          float64
	}{
		{"identical", []int{1, 2, 3}, []int{1, 2, 3}, 3, 1},
		{"order-insensitive", []int{3, 1, 2}, []int{1, 2, 3}, 3, 1},
		{"half", []int{1, 9}, []int{1, 2}, 2, 0.5},
		{"disjoint", []int{7, 8}, []int{1, 2}, 2, 0},
		{"truncates-exact", []int{1, 2}, []int{1, 2, 3, 4}, 2, 1},
		{"truncates-approx", []int{9, 9, 1}, []int{1, 2}, 2, 0},
		{"short-approx", []int{1}, []int{1, 2, 3}, 3, 1.0 / 3},
		{"dup-approx-counted-once", []int{1, 1, 1}, []int{1, 2, 3}, 3, 1.0 / 3},
		{"empty-exact", []int{1, 2}, nil, 5, 1},
		{"empty-approx", nil, []int{1, 2}, 2, 0},
		{"k-zero-means-whole-lists", []int{1, 2, 3, 4}, []int{1, 2, 3, 4}, 0, 1},
	}
	for _, c := range cases {
		if got := RecallAtK(c.approx, c.exact, c.k); got != c.want {
			t.Errorf("%s: RecallAtK = %v, want %v", c.name, got, c.want)
		}
	}
}
