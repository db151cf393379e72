// Package cluster implements the clustering machinery of Section 4: the
// Expectation–Maximization algorithm over the one-dimensional Gaussian
// mixture with EGED in place of the Mahalanobis distance (Equations 3–7),
// the K-Means and K-Harmonic-Means baselines, and BIC model selection
// (Equation 8).
//
// All algorithms cluster Object Graphs through their attribute sequences
// (dist.Sequence) and accept any dist.Metric, so the experiment grid of
// Figure 5 — {EM, KM, KHM} × {EGED, LCS, DTW} — is a parameter sweep.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"strgindex/internal/dist"
)

// Config parameterizes one clustering run.
type Config struct {
	// K is the number of clusters.
	K int
	// MaxIter bounds the EM/KM/KHM iterations. Zero means 100.
	MaxIter int
	// Tol is the convergence threshold: EM stops when every mixture weight
	// changes by less than Tol (the paper's "w_k is converged" test);
	// KM stops when assignments stop changing; KHM when the performance
	// function improves by less than Tol relatively.
	Tol float64
	// Seed drives centroid initialization.
	Seed int64
	// ForceIter disables early convergence: exactly MaxIter iterations
	// run. Used by timing sweeps that measure cost per iteration budget.
	ForceIter bool
	// Distance is the sequence dissimilarity; nil means the non-metric
	// EGED, as in Section 4.1.
	Distance dist.Metric
	// Concurrency bounds the worker pool used for the distance-matrix
	// passes (the dominant cost of every algorithm here): 0 means one
	// worker per CPU, 1 reproduces the paper's sequential evaluation
	// exactly, n > 1 caps the pool at n. Results are identical at every
	// setting — only wall-clock changes.
	Concurrency int
}

func (c Config) withDefaults(n int) (Config, error) {
	if c.K <= 0 {
		return c, fmt.Errorf("cluster: K = %d must be positive", c.K)
	}
	if n == 0 {
		return c, fmt.Errorf("cluster: no items")
	}
	if c.K > n {
		return c, fmt.Errorf("cluster: K = %d exceeds %d items", c.K, n)
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.Distance == nil {
		c.Distance = dist.EGED
	}
	return c, nil
}

// Result is the outcome of a clustering run.
type Result struct {
	K           int
	Assignments []int // item index -> cluster in [0, K)
	Centroids   []dist.Sequence
	// Weights are the mixture weights w_k (EM) or cluster fractions
	// (KM/KHM).
	Weights []float64
	// Sigmas are the per-component standard deviations σ_k (EM only;
	// populated with sample deviations for KM/KHM).
	Sigmas []float64
	// LogLikelihood is Equation 4 under the fitted model (EM; for KM/KHM
	// it is evaluated on the induced mixture so BIC remains comparable).
	LogLikelihood float64
	// Iterations actually performed.
	Iterations int
}

// Members returns the item indices assigned to cluster k.
func (r *Result) Members(k int) []int {
	var out []int
	for i, a := range r.Assignments {
		if a == k {
			out = append(out, i)
		}
	}
	return out
}

// sigmaFloor keeps components from collapsing onto a single point, which
// would break the mixture density (the covariance-singularity problem the
// paper's Section 4.1 discusses).
const sigmaFloor = 1e-3

// initCentroids seeds K centroids with k-means++-style D² sampling: the
// first centroid is a uniform random item, each further centroid is drawn
// with probability proportional to the squared distance to the nearest
// centroid chosen so far. ("OGs are selected randomly" in Section 4.1 —
// plain uniform seeding routinely drops two seeds into one cluster and
// stalls EM in a local optimum, so all three algorithms use the spread-out
// variant.)
func initCentroids(items []dist.Sequence, k int, rng *rand.Rand, metric dist.Metric, workers int) ([]dist.Sequence, error) {
	cents := make([]dist.Sequence, 0, k)
	cents = append(cents, items[rng.Intn(len(items))].Clone())
	// Each distance pass against the newest centroid fans out over the
	// worker pool; the D² sampling itself stays sequential so the rng
	// stream (and therefore the chosen seeds) is identical at any
	// concurrency.
	col, err := dist.CrossMatrix(items, cents[:1], metric, workers)
	if err != nil {
		return nil, err
	}
	minD := make([]float64, len(items))
	for j := range items {
		minD[j] = col[j][0]
	}
	for len(cents) < k {
		var total float64
		for _, d := range minD {
			total += d * d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(len(items))
		} else {
			r := rng.Float64() * total
			for j, d := range minD {
				r -= d * d
				if r < 0 {
					next = j
					break
				}
			}
		}
		cents = append(cents, items[next].Clone())
		col, err = dist.CrossMatrix(items, cents[len(cents)-1:], metric, workers)
		if err != nil {
			return nil, err
		}
		for j := range items {
			if d := col[j][0]; d < minD[j] {
				minD[j] = d
			}
		}
	}
	return cents, nil
}

// EM fits the K-component mixture of Equation 3 with the EM algorithm of
// Section 4.1 and returns hard assignments by maximum posterior
// (Equation 7).
func EM(items []dist.Sequence, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(len(items))
	if err != nil {
		return nil, err
	}
	m := len(items)
	k := cfg.K
	// Initialize the mixture from a short hard-clustering pass (the
	// model-based clustering practice of the paper's own citation,
	// Fraley & Raftery: EM is a refiner, not a from-scratch searcher).
	// K-Means++ seeding happens inside KMeans.
	warm := cfg
	warm.MaxIter = 4
	kmRes, err := KMeans(items, warm)
	if err != nil {
		return nil, err
	}
	cents := kmRes.Centroids
	weights := make([]float64, k)
	sigmas := make([]float64, k)

	// Initial σ: mean distance from items to their nearest centroid.
	// d[j][c] = Distance(Y_j, µ_c); the m × k pass is the dominant cost of
	// every EM iteration and fans out over the worker pool.
	var d [][]float64
	computeDistances := func() error {
		var err error
		d, err = dist.CrossMatrix(items, cents, cfg.Distance, cfg.Concurrency)
		return err
	}
	if err := computeDistances(); err != nil {
		return nil, err
	}
	var sumMin float64
	for j := 0; j < m; j++ {
		minD := d[j][0]
		for c := 1; c < k; c++ {
			minD = math.Min(minD, d[j][c])
		}
		sumMin += minD
	}
	sigma0 := math.Max(sumMin/float64(m), sigmaFloor)
	// Components are kept from growing wider than the initial global
	// spread: a component whose responsibilities straddle two clusters
	// averages into a meaningless mid-air centroid, its σ inflates, and —
	// unchecked — it swallows the whole dataset within a few iterations
	// (the mixture over non-negative distances has no mechanism of its own
	// to stop that runaway).
	sigmaCap := sigma0
	for c := 0; c < k; c++ {
		weights[c] = 1 / float64(k)
		sigmas[c] = sigma0
	}

	h := make([][]float64, m) // responsibilities h_jk (Equation 5)
	for j := range h {
		h[j] = make([]float64, k)
	}
	prevAssign := make([]int, m)
	for j := range prevAssign {
		prevAssign[j] = -1
	}
	var logLik float64
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// E-step: posteriors in log domain for numerical stability. The
		// responsibilities use UNIFORM mixing weights; the fitted w_k enter
		// the reported likelihood (Equation 4) but not the assignment.
		// With w_k in the posterior, the 1-D distance mixture has a
		// rich-get-richer feedback loop — a component that grows gains
		// prior mass, absorbs its neighbors' boundary items, grows its σ,
		// and within tens of iterations owns half the dataset.
		logLik = 0
		for j := 0; j < m; j++ {
			logp := make([]float64, k)
			logpW := make([]float64, k)
			for c := 0; c < k; c++ {
				base := -math.Log(sigmas[c]) - 0.5*math.Log(2*math.Pi) -
					d[j][c]*d[j][c]/(2*sigmas[c]*sigmas[c])
				logp[c] = base - math.Log(float64(k))
				logpW[c] = base + math.Log(weights[c]+1e-300)
			}
			logLik += logSumExp(logpW)
			lse := logSumExp(logp)
			for c := 0; c < k; c++ {
				h[j][c] = math.Exp(logp[c] - lse)
			}
		}
		// M-step (Equation 6).
		maxDelta := 0.0
		reseeded := false
		for c := 0; c < k; c++ {
			var hw float64
			for j := 0; j < m; j++ {
				hw += h[j][c]
			}
			newW := hw / float64(m)
			maxDelta = math.Max(maxDelta, math.Abs(newW-weights[c]))
			weights[c] = newW
			if newW < 1e-3/float64(k) && iter < 3 {
				// Dead component: reseed on the item farthest from its
				// nearest centroid AND restore a workable mixture weight —
				// a reseeded component with w ≈ 0 would receive no
				// responsibility and die again immediately, letting one
				// wide component swallow the data. Reseeding is confined
				// to the first iterations: a component still dead after
				// that reflects the data (fewer real clusters than K), and
				// perpetual reseeding just churns the fit.
				cents[c] = items[farthestItem(d)].Clone()
				sigmas[c] = sigma0
				weights[c] = 1 / float64(k)
				reseeded = true
				continue
			}
			// Classification-EM centroid update (Celeux & Govaert): the
			// barycenter is taken over max-posterior members only. A fully
			// soft update has no fixed point in this non-Euclidean sequence
			// space — fractional responsibilities leaking into the
			// barycenter drag centroids between clusters until one
			// component absorbs its neighbors. Weights, σ and the
			// likelihood remain soft (Equations 4–6).
			colW := make([]float64, m)
			any := false
			for j := 0; j < m; j++ {
				if maxPosterior(h[j]) == c && h[j][c] > 0 {
					colW[j] = 1
					any = true
				}
			}
			if any {
				cents[c] = Barycenter(items, colW)
			}
		}
		// One distance pass serves both the σ update below and the next
		// E-step.
		if err := computeDistances(); err != nil {
			return nil, err
		}
		// Per-component variance over the hard (max-posterior) members,
		// consistent with the classification-EM centroid update. Soft
		// responsibilities would let a component straddling two clusters
		// inflate its σ and snowball until it owns the whole dataset; hard
		// membership plus the σ cap keeps each component's variance an
		// honest estimate of its own cluster's spread — which matters for
		// BIC: a single heavy-tailed cluster must not drag every other
		// component's likelihood down, as a tied variance would force.
		for c := 0; c < k; c++ {
			var s2 float64
			var n int
			for j := 0; j < m; j++ {
				if maxPosterior(h[j]) != c {
					continue
				}
				s2 += d[j][c] * d[j][c]
				n++
			}
			if n > 0 {
				sigmas[c] = math.Min(math.Max(math.Sqrt(s2/float64(n)), sigmaFloor), sigmaCap)
			}
		}
		if reseeded {
			var wsum float64
			for _, w := range weights {
				wsum += w
			}
			for c := range weights {
				weights[c] /= wsum
			}
		}
		// Convergence: the paper stops "when w_k is converged"; with the
		// classification-EM centroid update the equivalent fixed point is
		// reached exactly when the hard assignments stop moving.
		stable := true
		for j := 0; j < m; j++ {
			a := maxPosterior(h[j])
			if a != prevAssign[j] {
				stable = false
			}
			prevAssign[j] = a
		}
		if !cfg.ForceIter && !reseeded && (stable || maxDelta < cfg.Tol) {
			iter++
			break
		}
	}
	res := &Result{
		K:             k,
		Assignments:   make([]int, m),
		Centroids:     cents,
		Weights:       weights,
		Sigmas:        sigmas,
		LogLikelihood: logLik,
		Iterations:    iter,
	}
	// Hard assignment by maximum posterior (Equation 7, uniform priors as
	// in the E-step).
	for j := 0; j < m; j++ {
		best, bestVal := 0, math.Inf(-1)
		for c := 0; c < k; c++ {
			v := -math.Log(sigmas[c]) - d[j][c]*d[j][c]/(2*sigmas[c]*sigmas[c])
			if v > bestVal {
				best, bestVal = c, v
			}
		}
		res.Assignments[j] = best
	}
	return res, nil
}

// maxPosterior returns the component with the largest responsibility.
func maxPosterior(row []float64) int {
	best, bestV := 0, row[0]
	for c, v := range row {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// farthestItem returns the index of the item with the largest distance to
// its nearest centroid, given the current distance matrix.
func farthestItem(d [][]float64) int {
	best, bestVal := 0, -1.0
	for j := range d {
		minD := math.Inf(1)
		for _, v := range d[j] {
			minD = math.Min(minD, v)
		}
		if minD > bestVal {
			best, bestVal = j, minD
		}
	}
	return best
}

func logSumExp(xs []float64) float64 {
	maxV := math.Inf(-1)
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
	}
	if math.IsInf(maxV, -1) {
		return maxV
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxV)
	}
	return maxV + math.Log(sum)
}

// KMeans is Lloyd's algorithm over sequences with barycentric centroid
// updates — the KM baseline of Section 6.2.
func KMeans(items []dist.Sequence, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(len(items))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cents, err := initCentroids(items, cfg.K, rng, cfg.Distance, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	assign, cents, iter, err := lloyd(items, cents, cfg)
	if err != nil {
		return nil, err
	}
	return finalizeHard(items, cents, assign, cfg, iter)
}

// lloyd runs assignment/update rounds from the given centroids until
// assignments stabilize (unless cfg.ForceIter) or cfg.MaxIter is reached.
// The nearest-centroid pass — the O(m·k) distance matrix — runs on the
// worker pool; the argmin itself compares matrix entries (no repeated
// metric evaluation, and for the point-level comparisons inside the DP
// kernels dist.NormSq already keeps sqrt off the comparison path).
func lloyd(items []dist.Sequence, cents []dist.Sequence, cfg Config) ([]int, []dist.Sequence, int, error) {
	m, k := len(items), len(cents)
	assign := make([]int, m)
	for i := range assign {
		assign[i] = -1
	}
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		d, err := dist.CrossMatrix(items, cents, cfg.Distance, cfg.Concurrency)
		if err != nil {
			return nil, nil, 0, err
		}
		changed := false
		for j := 0; j < m; j++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if dd := d[j][c]; dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[j] != best {
				assign[j] = best
				changed = true
			}
		}
		if !changed && !cfg.ForceIter {
			iter++
			break
		}
		for c := 0; c < k; c++ {
			w := make([]float64, m)
			any := false
			for j := 0; j < m; j++ {
				if assign[j] == c {
					w[j] = 1
					any = true
				}
			}
			if !any {
				// Empty cluster: reseed on the globally farthest item.
				// Deliberately re-evaluated (not read from this round's
				// matrix): centroids with index below c were already
				// replaced by their barycenters, and the reseed choice
				// must see those updates, exactly as it always has.
				far, farD := 0, -1.0
				for j, it := range items {
					dd := cfg.Distance(it, cents[assign[j]])
					if dd > farD {
						far, farD = j, dd
					}
				}
				cents[c] = items[far].Clone()
				continue
			}
			cents[c] = Barycenter(items, w)
		}
	}
	return assign, cents, iter, nil
}

// khmPower is the p exponent of the K-Harmonic-Means performance function;
// Hamerly & Elkan recommend p ≈ 3.5.
const khmPower = 3.5

// KHarmonicMeans implements the KHM baseline (Hamerly & Elkan 2002): soft
// memberships m(c_k|x_j) ∝ d_jk^{-p-2} and data weights
// w(x_j) = Σ_k d_jk^{-p-2} / (Σ_k d_jk^{-p})².
func KHarmonicMeans(items []dist.Sequence, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(len(items))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m, k := len(items), cfg.K
	cents, err := initCentroids(items, k, rng, cfg.Distance, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	prevPerf := math.Inf(1)
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		d, err := dist.CrossMatrix(items, cents, cfg.Distance, cfg.Concurrency)
		if err != nil {
			return nil, err
		}
		perf := 0.0
		for j := 0; j < m; j++ {
			var invSum float64
			for c := 0; c < k; c++ {
				dd := math.Max(d[j][c], 1e-9)
				d[j][c] = dd
				invSum += math.Pow(dd, -khmPower)
			}
			perf += float64(k) / invSum
		}
		// Membership × weight per item/cluster, then barycentric update.
		for c := 0; c < k; c++ {
			w := make([]float64, m)
			var total float64
			for j := 0; j < m; j++ {
				var sumP2, sumP float64
				for cc := 0; cc < k; cc++ {
					sumP2 += math.Pow(d[j][cc], -khmPower-2)
					sumP += math.Pow(d[j][cc], -khmPower)
				}
				membership := math.Pow(d[j][c], -khmPower-2) / sumP2
				weight := sumP2 / (sumP * sumP)
				w[j] = membership * weight
				total += w[j]
			}
			if total > 1e-12 {
				cents[c] = Barycenter(items, w)
			}
		}
		if prevPerf-perf < cfg.Tol*math.Abs(prevPerf) && !cfg.ForceIter {
			iter++
			break
		}
		prevPerf = perf
	}
	// Hard assignment by nearest centroid (one parallel matrix pass).
	d, err := dist.CrossMatrix(items, cents, cfg.Distance, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	assign := make([]int, m)
	for j := 0; j < m; j++ {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if dd := d[j][c]; dd < bestD {
				best, bestD = c, dd
			}
		}
		assign[j] = best
	}
	return finalizeHard(items, cents, assign, cfg, iter)
}

// finalizeHard builds a Result from hard assignments, deriving weights,
// sample sigmas and the induced-mixture log-likelihood so BIC comparisons
// work across algorithms. One parallel m × k distance pass feeds both the
// sigma accumulation and the likelihood.
func finalizeHard(items []dist.Sequence, cents []dist.Sequence, assign []int, cfg Config, iters int) (*Result, error) {
	m, k := len(items), cfg.K
	d, err := dist.CrossMatrix(items, cents, cfg.Distance, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, k)
	sigmas := make([]float64, k)
	counts := make([]int, k)
	for j, a := range assign {
		counts[a]++
		dd := d[j][a]
		sigmas[a] += dd * dd
	}
	for c := 0; c < k; c++ {
		weights[c] = float64(counts[c]) / float64(m)
		if counts[c] > 0 {
			sigmas[c] = math.Max(math.Sqrt(sigmas[c]/float64(counts[c])), sigmaFloor)
		} else {
			sigmas[c] = sigmaFloor
		}
	}
	var logLik float64
	for j := 0; j < m; j++ {
		logp := make([]float64, 0, k)
		for c := 0; c < k; c++ {
			if weights[c] == 0 {
				continue
			}
			dd := d[j][c]
			logp = append(logp, math.Log(weights[c])-math.Log(sigmas[c])-
				0.5*math.Log(2*math.Pi)-dd*dd/(2*sigmas[c]*sigmas[c]))
		}
		logLik += logSumExp(logp)
	}
	return &Result{
		K:             k,
		Assignments:   assign,
		Centroids:     cents,
		Weights:       weights,
		Sigmas:        sigmas,
		LogLikelihood: logLik,
		Iterations:    iters,
	}, nil
}

// Barycenter computes a weighted mean sequence: members are resampled to
// the weighted median length and averaged pointwise. This realizes the
// paper's µ_k update (Equation 6) for variable-length OGs, where the paper
// itself is silent on how to average sequences of different lengths.
// Zero or negative total weight falls back to uniform weights. It panics
// if items is empty or lengths differ from weights.
func Barycenter(items []dist.Sequence, weights []float64) dist.Sequence {
	if len(items) == 0 {
		panic("cluster: Barycenter of no items")
	}
	if len(items) != len(weights) {
		panic("cluster: Barycenter weight count mismatch")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		weights = make([]float64, len(items))
		for i := range weights {
			weights[i] = 1
		}
		total = float64(len(items))
	}
	length := weightedMedianLength(items, weights, total)
	d := 0
	for _, it := range items {
		if len(it) > 0 {
			d = it.Dim()
			break
		}
	}
	out := make(dist.Sequence, length)
	norm := make([]float64, length)
	for i := range out {
		out[i] = make(dist.Vec, d)
	}
	for j, it := range items {
		w := weights[j]
		if w <= 0 || len(it) == 0 {
			continue
		}
		rs := dist.Resample(it, length)
		for i := 0; i < length; i++ {
			for x := 0; x < d; x++ {
				out[i][x] += w * rs[i][x]
			}
			norm[i] += w
		}
	}
	for i := range out {
		if norm[i] > 0 {
			for x := range out[i] {
				out[i][x] /= norm[i]
			}
		}
	}
	return out
}

// weightedMedianLength returns the weighted median of the item lengths
// (minimum 1).
func weightedMedianLength(items []dist.Sequence, weights []float64, total float64) int {
	type lw struct {
		l int
		w float64
	}
	ls := make([]lw, 0, len(items))
	for i, it := range items {
		if weights[i] > 0 {
			ls = append(ls, lw{len(it), weights[i]})
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].l < ls[j].l })
	var cum float64
	for _, e := range ls {
		cum += e.w
		if cum >= total/2 {
			if e.l < 1 {
				return 1
			}
			return e.l
		}
	}
	return 1
}
