package bulk

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"time"

	"lemp/internal/core"
)

// Config shapes one bulk job. Exactly one of K (Row-Top-k) or Theta
// (Above-θ) selects the problem; the zero value of everything else picks
// throughput-oriented defaults.
type Config struct {
	// K computes every query's k largest products (> 0 selects top-k mode).
	K int
	// Theta computes every product ≥ Theta (> 0 selects Above-θ mode).
	Theta float64
	// PanelRows is the query-panel height (default 256): large enough to
	// amortize per-panel sort and claim cost — and, since both retrieval
	// loops put the probe bucket outside the panel's queries, the memory
	// read of every bucket and its sorted lists, done once per panel —
	// small enough that a panel's directions plus per-worker scratch stay
	// cache-resident beside the bucket being scanned.
	PanelRows int
	// Parallelism is the worker-pool size (default all cores — this is
	// the throughput mode). It also sizes the one tuning pass of the
	// core.Job, made by the first panel while the rest of the pool waits
	// for the fit; each panel is one single-threaded Job.Run, the pool
	// parallelizes across panels.
	Parallelism int
	// Window bounds how many panels past the flush frontier may be
	// claimed (default 4×Parallelism): it is the writer's reordering
	// buffer, so it also bounds result memory held for out-of-order
	// panels.
	Window int
	// Checkpoint, when non-empty, is the BULKCK file path: the job
	// checkpoints there every CheckpointEvery flushed panels, resumes
	// from it when it exists, and removes it on completion.
	Checkpoint string
	// CheckpointEvery is the checkpoint cadence in flushed panels
	// (default 64).
	CheckpointEvery int
}

func (cfg Config) withDefaults() Config {
	if cfg.PanelRows == 0 {
		cfg.PanelRows = 256
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.Window == 0 {
		cfg.Window = 4 * cfg.Parallelism
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 64
	}
	return cfg
}

// validate checks the job's shape; K and Theta are core.Problem's to check
// (Run builds the retrieval job before it opens any file).
func (cfg Config) validate() error {
	if cfg.PanelRows < 1 || cfg.Parallelism < 1 || cfg.Window < 1 || cfg.CheckpointEvery < 1 {
		return fmt.Errorf("bulk: invalid config (panel=%d parallel=%d window=%d ckpt-every=%d)",
			cfg.PanelRows, cfg.Parallelism, cfg.Window, cfg.CheckpointEvery)
	}
	return nil
}

// mode resolves the problem selected by the config.
func (cfg Config) mode() Mode {
	if cfg.K > 0 {
		return ModeTopK
	}
	return ModeAbove
}

// Stats reports one bulk run.
type Stats struct {
	// Core is the sum of every panel's retrieval work (TuneTime and
	// RetrievalTime are summed worker time, not wall clock). The index's own
	// state, such as its preprocessing time, is read from the index.
	Core core.Stats
	// Rows is the total query count of the job; Panels the panel count
	// computed by THIS run, ResumedPanels those skipped because a
	// checkpoint had already flushed them.
	Rows          int
	Panels        int
	ResumedPanels int
	// Checkpoints counts BULKCK files written; OutBytes is the final
	// result-file size; Wall the run's wall-clock time.
	Checkpoints int
	OutBytes    int64
	Wall        time.Duration
}

// RowsPerSec is the throughput metric of the bench harness: rows computed
// by this run per second of wall clock.
func (s Stats) RowsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Rows) / s.Wall.Seconds()
}

// Run executes one bulk job: streams src through ix panel by panel with a
// worker pool and writes the LEMPBRS1 result table to outPath. The output
// is a pure function of (index, queries, problem): canonical row order,
// exact values, panels flushed strictly in order — so an interrupted job
// (context cancellation, crash) resumed from its checkpoint produces a
// byte-identical file to an uninterrupted run.
//
// Run follows the Index concurrency contract job-wide: no mutations and no
// other retrieval jobs on ix while Run executes.
func Run(ctx context.Context, ix *core.Index, src QuerySource, outPath string, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	if err := cfg.validate(); err != nil {
		return st, err
	}
	rj, err := ix.NewJob(core.Problem{K: cfg.K, Theta: cfg.Theta}, core.RunOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return st, err
	}
	if outPath == "" {
		return st, errors.New("bulk: output path required")
	}
	if src.R() != ix.R() {
		return st, fmt.Errorf("bulk: query dimension %d does not match index dimension %d", src.R(), ix.R())
	}
	mode := cfg.mode()
	m := src.N()
	panels := (m + cfg.PanelRows - 1) / cfg.PanelRows
	hash := jobHash(ix, src, cfg)
	start := time.Now()

	j, startPanel, err := openJob(outPath, mode, m, src.R(), panels, hash, cfg)
	if err != nil {
		return st, err
	}
	st.Rows = m
	st.ResumedPanels = startPanel
	st.Panels = panels - startPanel

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Wake claim-blocked workers when the context dies.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-runCtx.Done():
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		case <-watchDone:
		}
	}()

	workers := cfg.Parallelism
	if st.Panels < workers {
		workers = st.Panels
	}
	workerStats := make([]core.Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			above := newAboveRows()
			for {
				idx, ok := j.claim(runCtx)
				if !ok {
					return
				}
				lo := idx * cfg.PanelRows
				hi := lo + cfg.PanelRows
				if hi > m {
					hi = m
				}
				buf, err := runPanel(runCtx, rj, src, mode, lo, hi, &workerStats[w], above)
				if err != nil {
					j.fail(err)
					cancel()
					return
				}
				if err := j.submit(idx, buf); err != nil {
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(watchDone)

	for i := range workerStats {
		st.Core.Add(workerStats[i])
	}
	j.mu.Lock()
	err = j.err
	st.OutBytes = j.offset
	j.mu.Unlock()
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		// Best-effort final checkpoint: resume then loses only the
		// unflushed window, not everything since the last cadence mark.
		if cfg.Checkpoint != "" {
			j.mu.Lock()
			j.checkpointLocked(true)
			st.OutBytes = j.offset
			st.Checkpoints = j.checkpoints
			j.mu.Unlock()
		}
		j.f.Close()
		st.Wall = time.Since(start)
		return st, err
	}
	if err := j.finish(panels); err != nil {
		st.Wall = time.Since(start)
		return st, err
	}
	st.Checkpoints = j.checkpoints
	st.OutBytes = j.offset
	if cfg.Checkpoint != "" {
		if err := os.Remove(cfg.Checkpoint); err != nil && !errors.Is(err, fs.ErrNotExist) {
			st.Wall = time.Since(start)
			return st, fmt.Errorf("bulk: removing completed checkpoint: %w", err)
		}
	}
	st.Wall = time.Since(start)
	return st, nil
}

// runPanel computes and canonically encodes one panel; an Above-θ panel
// collects its entries in the worker's above.
func runPanel(ctx context.Context, rj *core.Job, src QuerySource, mode Mode, lo, hi int, ws *core.Stats, above *aboveRows) ([]byte, error) {
	qm, err := src.Panel(lo, hi-lo)
	if err != nil {
		return nil, fmt.Errorf("bulk: reading query panel [%d,%d): %w", lo, hi, err)
	}
	if mode == ModeTopK {
		rows, pst, err := rj.Run(ctx, qm, nil)
		if err != nil {
			return nil, fmt.Errorf("bulk: query panel [%d,%d): %w", lo, hi, err)
		}
		ws.Add(pst)
		return encodeTopKPanel(rows), nil
	}
	above.reset(qm.N())
	_, pst, err := rj.Run(ctx, qm, above.sink)
	if err != nil {
		return nil, fmt.Errorf("bulk: query panel [%d,%d): %w", lo, hi, err)
	}
	ws.Add(pst)
	return above.encode(), nil
}

// job is the shared write-side state: the claim cursor, the reordering
// buffer, the result file with its running CRC, and the checkpoint
// cadence. One mutex covers all of it — panel compute dominates, claims
// and submits are rare and cheap relative to a panel's scan.
type job struct {
	mu   sync.Mutex
	cond *sync.Cond

	f  *os.File
	bw *bufio.Writer

	panels    int
	window    int
	nextClaim int
	nextFlush int
	pending   map[int][]byte

	offset int64
	crc    uint32

	hash        uint64
	ckptPath    string
	ckptEvery   int
	lastCkpt    int
	checkpoints int

	err error
}

// openJob opens (or resumes) the result file and builds the job state.
// It returns the first panel index this run must compute.
func openJob(outPath string, mode Mode, m, r, panels int, hash uint64, cfg Config) (*job, int, error) {
	j := &job{
		panels:    panels,
		window:    cfg.Window,
		pending:   make(map[int][]byte),
		hash:      hash,
		ckptPath:  cfg.Checkpoint,
		ckptEvery: cfg.CheckpointEvery,
	}
	j.cond = sync.NewCond(&j.mu)

	if cfg.Checkpoint != "" {
		ck, err := readCheckpoint(cfg.Checkpoint)
		switch {
		case err == nil:
			if ck.jobHash != hash {
				return nil, 0, fmt.Errorf("bulk: checkpoint %s was written by a different job (hash %016x, this job %016x); delete it to start over", cfg.Checkpoint, ck.jobHash, hash)
			}
			if ck.panels > uint64(panels) {
				return nil, 0, fmt.Errorf("bulk: checkpoint %s claims %d panels done of %d", cfg.Checkpoint, ck.panels, panels)
			}
			f, err := os.OpenFile(outPath, os.O_RDWR, 0)
			if err != nil {
				return nil, 0, fmt.Errorf("bulk: checkpoint exists but result file does not: %w", err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			if fi.Size() < int64(ck.offset) {
				f.Close()
				return nil, 0, fmt.Errorf("bulk: result file %s holds %d bytes but checkpoint requires %d", outPath, fi.Size(), ck.offset)
			}
			crc, err := crcOfPrefix(f, int64(ck.offset))
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			if crc != ck.outCRC {
				f.Close()
				return nil, 0, fmt.Errorf("bulk: result file %s does not match checkpoint (CRC %08x, want %08x)", outPath, crc, ck.outCRC)
			}
			// Drop any bytes past the checkpoint — panels flushed but
			// not yet checkpointed are recomputed.
			if err := f.Truncate(int64(ck.offset)); err != nil {
				f.Close()
				return nil, 0, err
			}
			if _, err := f.Seek(int64(ck.offset), 0); err != nil {
				f.Close()
				return nil, 0, err
			}
			j.f = f
			j.bw = bufio.NewWriterSize(f, 1<<20)
			j.offset = int64(ck.offset)
			j.crc = ck.outCRC
			j.nextClaim = int(ck.panels)
			j.nextFlush = int(ck.panels)
			j.lastCkpt = int(ck.panels)
			return j, int(ck.panels), nil
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start below.
		default:
			return nil, 0, err
		}
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, 0, err
	}
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<20)
	hdr := encodeHeader(mode, cfg.K, cfg.Theta, m, r, cfg.PanelRows)
	if _, err := j.bw.Write(hdr); err != nil {
		f.Close()
		return nil, 0, err
	}
	j.offset = int64(len(hdr))
	j.crc = crc32.ChecksumIEEE(hdr)
	return j, 0, nil
}

// claim hands out the next panel index, blocking while the claim frontier
// is a full window ahead of the flush frontier (bounded reordering
// memory). ok=false means the job is drained, failed, or canceled.
func (j *job) claim(ctx context.Context) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.err != nil || ctx.Err() != nil || j.nextClaim >= j.panels {
			return 0, false
		}
		if j.nextClaim < j.nextFlush+j.window {
			idx := j.nextClaim
			j.nextClaim++
			return idx, true
		}
		j.cond.Wait()
	}
}

// fail records the job's first error and wakes blocked claimers.
func (j *job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// submit hands a computed panel to the writer. Panels are buffered until
// they are the flush frontier, then written in panel order; the running
// CRC and offset advance only with flushed bytes, so a checkpoint always
// describes a strictly in-order prefix.
func (j *job) submit(idx int, buf []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.pending[idx] = buf
	for {
		b, ok := j.pending[j.nextFlush]
		if !ok {
			break
		}
		if _, err := j.bw.Write(b); err != nil {
			j.err = fmt.Errorf("bulk: writing panel %d: %w", j.nextFlush, err)
			j.cond.Broadcast()
			return j.err
		}
		j.crc = crc32.Update(j.crc, crc32.IEEETable, b)
		j.offset += int64(len(b))
		delete(j.pending, j.nextFlush)
		j.nextFlush++
	}
	j.cond.Broadcast()
	if j.ckptPath != "" && j.nextFlush-j.lastCkpt >= j.ckptEvery && j.nextFlush < j.panels {
		j.checkpointLocked(false)
	}
	return j.err
}

// checkpointLocked makes the flushed prefix durable (flush + fsync) and
// atomically replaces the BULKCK file. Called with j.mu held. In
// best-effort mode (a failing job's final checkpoint) errors are swallowed
// — the previous checkpoint remains valid either way, thanks to the
// write-to-temp-then-rename discipline.
func (j *job) checkpointLocked(bestEffort bool) {
	if j.nextFlush == j.lastCkpt && j.checkpoints > 0 {
		return
	}
	err := j.bw.Flush()
	if err == nil {
		err = j.f.Sync()
	}
	if err == nil {
		err = writeCheckpointAtomic(j.ckptPath, checkpoint{
			jobHash: j.hash,
			panels:  uint64(j.nextFlush),
			offset:  uint64(j.offset),
			outCRC:  j.crc,
		})
	}
	if err == nil {
		j.lastCkpt = j.nextFlush
		j.checkpoints++
		return
	}
	if !bestEffort && j.err == nil {
		j.err = fmt.Errorf("bulk: checkpoint: %w", err)
		j.cond.Broadcast()
	}
}

// finish flushes and closes a successful job, asserting every panel was
// written.
func (j *job) finish(panels int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.nextFlush != panels {
		j.f.Close()
		return fmt.Errorf("bulk: internal error: %d of %d panels flushed", j.nextFlush, panels)
	}
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
