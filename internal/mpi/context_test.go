package mpi

import (
	"context"
	"errors"
	"testing"
)

func TestRunContextCanceledBeforeStart(t *testing.T) {
	cl := testCluster(t, 10, 10)
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range engines {
		_, err := Run(ctx, cl, m, e.opts, func(c Comm) error {
			t.Errorf("%s: program ran under canceled context", e.name)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.name, err)
		}
	}
}

// A cancellation that lands mid-run must not lose the engine's drain: the
// error reports cancellation only after every rank finished.
func TestRunContextCancelMidRunDrains(t *testing.T) {
	cl := testCluster(t, 10, 10)
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, cl, m, Options{Engine: EngineLive}, func(c Comm) error {
		if c.Rank() == 0 {
			cancel() // arrives while the program is in flight
		}
		c.Compute(1000)
		c.Barrier()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
