package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"finepack/internal/obs"
	"finepack/internal/sim"
)

// TestObservedRunContextCanceled checks both stages: canceled up front,
// and canceled between trace generation and the run.
func TestObservedRunContextCanceled(t *testing.T) {
	s := smallSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ObservedRun(ctx, "sssp", sim.FinePack, obs.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ObservedRun error = %v, want context.Canceled", err)
	}

	// Deadline in the past behaves identically.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	if _, _, err := s.ObservedRun(dctx, "sssp", sim.FinePack, obs.Config{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ObservedRun error = %v, want context.DeadlineExceeded", err)
	}
}

// TestWriteReportContextCanceled checks that a canceled report aborts
// between sections with a section-naming error instead of silently
// finishing, and that cancellation mid-report leaves the already-written
// prefix intact (partial output, explicit error).
func TestWriteReportContextCanceled(t *testing.T) {
	s := smallSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := s.WriteReport(ctx, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteReport error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled before") {
		t.Fatalf("error %q does not name the aborted section", err)
	}
	// The header is written before the first section check.
	if !strings.Contains(buf.String(), "# FinePack experiment report") {
		t.Fatalf("report prefix missing, got %q", buf.String())
	}
	if strings.Contains(buf.String(), "## ") {
		t.Fatalf("canceled report still rendered a section: %q", buf.String())
	}
}
