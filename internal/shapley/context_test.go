package shapley

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"comfedsv/internal/mc"
)

func TestCtxVariantsCancelled(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 61)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := FedSVCtx(ctx, e, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("FedSVCtx: %v, want context.Canceled", err)
	}
	if _, err := ComFedSVExactCtx(ctx, e, mc.DefaultConfig(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ComFedSVExactCtx: %v, want context.Canceled", err)
	}
	cfg := DefaultMonteCarloConfig(5, 3, 7)
	if _, err := MonteCarloCtx(ctx, e, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonteCarloCtx: %v, want context.Canceled", err)
	}
}

// TestCtxVariantsMatchPlain checks the ctx plumbing leaves results
// bit-identical under a never-cancelled context.
func TestCtxVariantsMatchPlain(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 62)
	ctx := context.Background()

	wantFed := referenceFedSV(e)
	gotFed, err := FedSVCtx(ctx, e, 2)
	if err != nil || !reflect.DeepEqual(wantFed, gotFed) {
		t.Fatalf("FedSVCtx diverges: %v / err %v", gotFed, err)
	}

	wantEx, err := ComFedSVExact(e, mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	gotEx, err := ComFedSVExactCtx(ctx, e, mc.DefaultConfig(3))
	if err != nil || !reflect.DeepEqual(wantEx.Values, gotEx.Values) {
		t.Fatalf("ComFedSVExactCtx diverges: err %v", err)
	}

	cfg := DefaultMonteCarloConfig(5, 3, 7)
	wantMC, err := MonteCarlo(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotMC, err := MonteCarloCtx(ctx, e, cfg)
	if err != nil || !reflect.DeepEqual(wantMC.Values, gotMC.Values) {
		t.Fatalf("MonteCarloCtx diverges: err %v", err)
	}
}
