// Package mf implements a plain stochastic-gradient-descent matrix
// factorization with L2 regularization, the substrate that produces LEMP's
// input matrices in the paper's applications (§1, §6.1: the Netflix factors
// come from DSGD++ with L2 regularization).
//
// It factorizes a sparse feedback matrix D ≈ QᵀP, where columns of Q are
// user factors and columns of P are item factors. This is a single-machine,
// single-threaded SGD — enough to produce realistic factor matrices for the
// examples and tests; it is not a distributed trainer.
package mf

import (
	"errors"
	"math"
	"math/rand"

	"lemp/internal/data"
	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// Config controls SGD training.
type Config struct {
	Rank      int     // number of latent factors r
	Epochs    int     // passes over the ratings
	LearnRate float64 // initial SGD step size
	Decay     float64 // multiplicative step decay per epoch (e.g. 0.95)
	Reg       float64 // L2 regularization λ
	InitScale float64 // stddev of factor initialization (default 1/√Rank)
	Seed      int64
}

// Model holds trained factors. Users.Vec(u) is the factor vector of user u;
// Items.Vec(i) of item i.
type Model struct {
	Users *matrix.Matrix
	Items *matrix.Matrix
	// LossByEpoch records the regularized training objective after each
	// epoch (squared error + L2 terms), for convergence checks.
	LossByEpoch []float64
}

// Train runs SGD over the ratings. users and items give the matrix
// dimensions (all indices in ratings must be in range).
func Train(ratings []data.Rating, users, items int, cfg Config) (*Model, error) {
	if cfg.Rank <= 0 {
		return nil, errors.New("mf: Rank must be positive")
	}
	if cfg.Epochs <= 0 {
		return nil, errors.New("mf: Epochs must be positive")
	}
	if cfg.LearnRate <= 0 {
		return nil, errors.New("mf: LearnRate must be positive")
	}
	if cfg.Decay == 0 {
		cfg.Decay = 1
	}
	if cfg.InitScale == 0 {
		cfg.InitScale = 1 / float64(cfg.Rank)
	}
	for _, rt := range ratings {
		if rt.User < 0 || rt.User >= users || rt.Item < 0 || rt.Item >= items {
			return nil, errors.New("mf: rating index out of range")
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Users: matrix.New(cfg.Rank, users), Items: matrix.New(cfg.Rank, items)}
	for i, d := 0, m.Users.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64() * cfg.InitScale
	}
	for i, d := 0, m.Items.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64() * cfg.InitScale
	}

	order := make([]int, len(ratings))
	for i := range order {
		order[i] = i
	}
	lr := cfg.LearnRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			rt := ratings[idx]
			qu := m.Users.Vec(rt.User)
			pi := m.Items.Vec(rt.Item)
			err := vecmath.Dot(qu, pi) - rt.Value
			for f := range qu {
				qf, pf := qu[f], pi[f]
				qu[f] -= lr * (err*pf + cfg.Reg*qf)
				pi[f] -= lr * (err*qf + cfg.Reg*pf)
			}
		}
		m.LossByEpoch = append(m.LossByEpoch, m.objective(ratings, cfg.Reg))
		lr *= cfg.Decay
	}
	return m, nil
}

// RMSE returns the root-mean-squared prediction error of the model on the
// given ratings.
func (m *Model) RMSE(ratings []data.Rating) float64 {
	if len(ratings) == 0 {
		return 0
	}
	return math.Sqrt(m.squaredError(ratings) / float64(len(ratings)))
}

func (m *Model) objective(ratings []data.Rating, reg float64) float64 {
	return m.squaredError(ratings) + reg*(vecmath.Norm2(m.Users.Data())+vecmath.Norm2(m.Items.Data()))
}

// squaredError sums the model's squared prediction errors over ratings.
func (m *Model) squaredError(ratings []data.Rating) float64 {
	var se float64
	for _, rt := range ratings {
		d := vecmath.Dot(m.Users.Vec(rt.User), m.Items.Vec(rt.Item)) - rt.Value
		se += d * d
	}
	return se
}
