package bulk

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lemp/internal/matrix"
)

// killSource wraps a QuerySource and cancels the job's context after a
// fixed number of panel reads — a deterministic stand-in for killing the
// process mid-panel.
type killSource struct {
	QuerySource
	mu     sync.Mutex
	reads  int
	after  int
	cancel context.CancelFunc
}

func (ks *killSource) Panel(start, count int) (*matrix.Matrix, error) {
	ks.mu.Lock()
	ks.reads++
	if ks.reads == ks.after {
		ks.cancel()
	}
	ks.mu.Unlock()
	return ks.QuerySource.Panel(start, count)
}

// The headline guarantee: a job killed mid-panel and resumed from its
// checkpoint produces a byte-identical result file to an uninterrupted
// run.
func TestBulkResumeByteIdentical(t *testing.T) {
	ix, q := bulkFixture(t, 160, 350, 10, 41)
	dir := t.TempDir()
	cfg := Config{
		K:               4,
		PanelRows:       8, // 20 panels
		Parallelism:     4,
		CheckpointEvery: 2,
	}

	golden := filepath.Join(dir, "golden.lempbrs")
	if _, err := Run(context.Background(), ix, Matrix{M: q}, golden, cfg); err != nil {
		t.Fatal(err)
	}
	goldenBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.lempbrs")
	ckpt := filepath.Join(dir, "job.bulkck")
	cfg.Checkpoint = ckpt

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ks := &killSource{QuerySource: Matrix{M: q}, after: 9, cancel: cancel}
	if _, err := Run(ctx, ix, ks, out, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err=%v, want context.Canceled", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interrupted run: %v", err)
	}
	interrupted, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(interrupted, goldenBytes) {
		t.Fatal("interrupted run already complete; kill earlier to make the test meaningful")
	}

	st, err := Run(context.Background(), ix, Matrix{M: q}, out, cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, goldenBytes) {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(resumed), len(goldenBytes))
	}
	if st.ResumedPanels+st.Panels != 20 {
		t.Fatalf("resume stats: %+v", st)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}
}

// interruptedJob produces a checkpoint + partial result pair for the
// corruption tests.
func interruptedJob(t *testing.T, dir string) (cfg Config, out, ckpt string) {
	t.Helper()
	ix, q := bulkFixture(t, 120, 300, 9, 43)
	out = filepath.Join(dir, "out.lempbrs")
	ckpt = filepath.Join(dir, "job.bulkck")
	cfg = Config{
		K: 3, PanelRows: 8, Parallelism: 2,
		CheckpointEvery: 1, Checkpoint: ckpt,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ks := &killSource{QuerySource: Matrix{M: q}, after: 6, cancel: cancel}
	if _, err := Run(ctx, ix, ks, out, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	return cfg, out, ckpt
}

func resumeErr(t *testing.T, cfg Config, out string) error {
	t.Helper()
	ix, q := bulkFixture(t, 120, 300, 9, 43)
	_, err := Run(context.Background(), ix, Matrix{M: q}, out, cfg)
	return err
}

// Corrupted, truncated, or mismatched checkpoints must refuse to resume
// rather than write a wrong result file.
func TestBulkCheckpointRejection(t *testing.T) {
	t.Run("flipped byte", func(t *testing.T) {
		cfg, out, ckpt := interruptedJob(t, t.TempDir())
		buf, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		buf[20] ^= 0xff // somewhere in the payload
		if err := os.WriteFile(ckpt, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		err = resumeErr(t, cfg, out)
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("corrupted checkpoint accepted: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		cfg, out, ckpt := interruptedJob(t, t.TempDir())
		buf, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, buf[:len(buf)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, cfg, out); err == nil {
			t.Fatal("truncated checkpoint accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		cfg, out, ckpt := interruptedJob(t, t.TempDir())
		buf, _ := os.ReadFile(ckpt)
		copy(buf, "NOTBULK!")
		if err := os.WriteFile(ckpt, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		err := resumeErr(t, cfg, out)
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad-magic checkpoint accepted: %v", err)
		}
	})
	t.Run("different job", func(t *testing.T) {
		cfg, out, _ := interruptedJob(t, t.TempDir())
		cfg.K = 7 // same checkpoint, different problem
		err := resumeErr(t, cfg, out)
		if err == nil || !strings.Contains(err.Error(), "different job") {
			t.Fatalf("foreign checkpoint accepted: %v", err)
		}
	})
	t.Run("result file truncated", func(t *testing.T) {
		cfg, out, _ := interruptedJob(t, t.TempDir())
		if err := os.Truncate(out, 10); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, cfg, out); err == nil {
			t.Fatal("truncated result file accepted")
		}
	})
	t.Run("result file tampered", func(t *testing.T) {
		cfg, out, ckpt := interruptedJob(t, t.TempDir())
		ck, err := readCheckpoint(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(out, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip the last byte of the checkpointed prefix — always inside
		// the CRC-covered range, whatever the kill landed on.
		var b [1]byte
		if _, err := f.ReadAt(b[:], int64(ck.offset)-1); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b[:], int64(ck.offset)-1); err != nil {
			t.Fatal(err)
		}
		f.Close()
		err = resumeErr(t, cfg, out)
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("tampered result file accepted: %v", err)
		}
	})
	t.Run("result file missing", func(t *testing.T) {
		cfg, out, _ := interruptedJob(t, t.TempDir())
		if err := os.Remove(out); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, cfg, out); err == nil {
			t.Fatal("missing result file accepted")
		}
	})
}

// A fresh job with a checkpoint path configured but no checkpoint on disk
// starts from scratch and completes clean. Window 1 flushes the 10 panels one
// at a time, so the cadence of 3 writes exactly 3 checkpoints whatever order
// the panels finish in (a wider window lets one late panel 0 flush them all
// at once, past every cadence point but the last).
func TestBulkCheckpointFreshStart(t *testing.T) {
	ix, q := bulkFixture(t, 40, 200, 8, 47)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.lempbrs")
	ckpt := filepath.Join(dir, "job.bulkck")
	st, err := Run(context.Background(), ix, Matrix{M: q}, out, Config{
		K: 3, PanelRows: 4, Window: 1, Checkpoint: ckpt, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 3 {
		t.Fatalf("%d checkpoints written for 10 panels at cadence 3, want 3", st.Checkpoints)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint left behind: %v", err)
	}
	if _, err := ReadResults(out); err != nil {
		t.Fatal(err)
	}
}
