package dataset

import (
	"math"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// SyntheticConfig parameterizes the synthetic(α,β) generator of Li et al.
// ("Federated Optimization in Heterogeneous Networks", 2018), the setup the
// paper uses for its synthetic experiments (Section VII-A). α controls how
// much the true local models differ across clients; β controls how much the
// local data distributions differ. α = β = 0 is the IID setting, α = β = 1
// the non-IID setting used in the paper.
type SyntheticConfig struct {
	Alpha      float64 // model heterogeneity
	Beta       float64 // data heterogeneity
	Dim        int     // feature dimension (paper uses 60)
	NumClasses int     // number of classes (paper uses 10)
	Seed       int64
}

// DefaultSyntheticConfig mirrors the dimensions used by Li et al.
func DefaultSyntheticConfig(alpha, beta float64, seed int64) SyntheticConfig {
	return SyntheticConfig{Alpha: alpha, Beta: beta, Dim: 60, NumClasses: 10, Seed: seed}
}

// GenerateSynthetic produces one local dataset per entry of sizes, following
// the synthetic(α,β) recipe:
//
//	for client k: u_k ~ N(0, α), B_k ~ N(0, β)
//	  model  W_k ~ N(u_k, 1)^{C×d}, b_k ~ N(u_k, 1)^C
//	  means  v_k ~ N(B_k, 1)^d, covariance Σ = diag(j^{-1.2})
//	  x ~ N(v_k, Σ), y = argmax softmax(W_k x + b_k)
func GenerateSynthetic(cfg SyntheticConfig, sizes []int) []*Dataset {
	g := rng.New(cfg.Seed)
	out := make([]*Dataset, len(sizes))
	// Diagonal covariance Σ_jj = j^{-1.2}, j starting at 1.
	sigma := make([]float64, cfg.Dim)
	for j := range sigma {
		sigma[j] = math.Pow(float64(j+1), -1.2)
	}
	// In the IID setting (α = β = 0) all clients share one label model and
	// one feature distribution, as in Li et al.'s synthetic_iid.
	iid := cfg.Alpha == 0 && cfg.Beta == 0
	shared := g.Split(-1)
	var sharedW [][]float64
	var sharedBias, sharedV []float64
	if iid {
		sharedW = make([][]float64, cfg.NumClasses)
		for c := range sharedW {
			sharedW[c] = shared.NormalVec(cfg.Dim, 0, 1)
		}
		sharedBias = shared.NormalVec(cfg.NumClasses, 0, 1)
		sharedV = shared.NormalVec(cfg.Dim, 0, 1)
	}
	for k, n := range sizes {
		ck := g.Split(int64(k))
		w, bias, vk := sharedW, sharedBias, sharedV
		if !iid {
			uk := ck.Normal(0, math.Sqrt(cfg.Alpha))
			bk := ck.Normal(0, math.Sqrt(cfg.Beta))
			w = make([][]float64, cfg.NumClasses)
			for c := range w {
				w[c] = ck.NormalVec(cfg.Dim, uk, 1)
			}
			bias = ck.NormalVec(cfg.NumClasses, uk, 1)
			vk = ck.NormalVec(cfg.Dim, bk, 1)
		}

		d := &Dataset{
			X:          make([][]float64, n),
			Y:          make([]int, n),
			NumClasses: cfg.NumClasses,
		}
		logits := make([]float64, cfg.NumClasses)
		for i := 0; i < n; i++ {
			x := make([]float64, cfg.Dim)
			for j := range x {
				x[j] = ck.Normal(vk[j], math.Sqrt(sigma[j]))
			}
			for c := range logits {
				logits[c] = mat.Dot(w[c], x) + bias[c]
			}
			d.X[i] = x
			d.Y[i] = mat.ArgMax(logits)
		}
		out[k] = d
	}
	return out
}

// ImageConfig parameterizes the synthetic image generators that stand in
// for the real benchmark datasets (the module ships no external data).
// Each class has a fixed random prototype image; samples are the prototype
// plus Gaussian pixel noise. Separation controls how far apart prototypes
// are relative to the noise, i.e. how learnable the task is.
type ImageConfig struct {
	Shape      ImageShape
	NumClasses int
	Separation float64 // prototype scale relative to unit pixel noise
	Noise      float64 // per-pixel sample noise stddev
	Seed       int64
}

// MNISTLikeConfig is the stand-in for MNIST: 10 classes of small grayscale
// images with high class separation (MNIST is an easy task: the paper's MLP
// reaches 98% accuracy).
func MNISTLikeConfig(seed int64) ImageConfig {
	return ImageConfig{
		Shape:      ImageShape{Height: 8, Width: 8, Channels: 1},
		NumClasses: 10,
		Separation: 2.0,
		Noise:      0.7,
		Seed:       seed,
	}
}

// FMNISTLikeConfig is the stand-in for Fashion-MNIST: same geometry as
// MNIST but lower class separation (Fashion-MNIST is harder than MNIST).
func FMNISTLikeConfig(seed int64) ImageConfig {
	return ImageConfig{
		Shape:      ImageShape{Height: 8, Width: 8, Channels: 1},
		NumClasses: 10,
		Separation: 1.4,
		Noise:      0.8,
		Seed:       seed,
	}
}

// CIFARLikeConfig is the stand-in for CIFAR-10: 3-channel images with low
// separation (CIFAR-10 is the hardest of the paper's benchmarks).
func CIFARLikeConfig(seed int64) ImageConfig {
	return ImageConfig{
		Shape:      ImageShape{Height: 8, Width: 8, Channels: 3},
		NumClasses: 10,
		Separation: 1.0,
		Noise:      1.0,
		Seed:       seed,
	}
}

// GenerateImages produces n examples from the class-conditional Gaussian
// image model described in ImageConfig. Labels are balanced round-robin so
// every class is represented.
func GenerateImages(cfg ImageConfig, n int) *Dataset {
	g := rng.New(cfg.Seed)
	dim := cfg.Shape.Size()
	prototypes := make([][]float64, cfg.NumClasses)
	for c := range prototypes {
		prototypes[c] = g.NormalVec(dim, 0, cfg.Separation)
	}
	shape := cfg.Shape
	d := &Dataset{
		X:          make([][]float64, n),
		Y:          make([]int, n),
		NumClasses: cfg.NumClasses,
		Shape:      &shape,
	}
	for i := 0; i < n; i++ {
		c := i % cfg.NumClasses
		x := make([]float64, dim)
		proto := prototypes[c]
		for j := range x {
			x[j] = proto[j] + g.Normal(0, cfg.Noise)
		}
		d.X[i] = x
		d.Y[i] = c
	}
	d.Shuffle(g)
	return d
}
