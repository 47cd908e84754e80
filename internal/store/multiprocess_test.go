package store

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// poolChildEnv tells a child of TestRecordersInSeveralProcessesShareAPool
// its part: "record <base> <n>" records run n into <base>/POOL, and
// "gc <base>" collects the pool until <base>/done appears.
const poolChildEnv = "FLOR_STORE_POOL_CHILD"

// Each recorder puts multiEpochs checkpoints over multiKeys keys, so every
// key is superseded and GCPool finds chunks to reclaim, and rewrites its
// manifest every other put, so that the superseded ones become dead.
const (
	multiEpochs = 12
	multiKeys   = 4
)

// multiSections is run n's checkpoint at epoch e: a backbone every run and
// epoch share, so runs in different processes deduplicate against each
// other, and a head of the run's and the epoch's own.
func multiSections(n, e int) []Section {
	return []Section{
		{Name: "backbone", Data: testPayload(512<<10, 7)},
		{Name: "head", Data: testPayload(300<<10, uint64(1000*n+e))},
	}
}

// TestRecordersInSeveralProcessesShareAPool runs the pool's writers in
// processes of their own: the test binary starts itself three times, two
// children recording different runs into one pool while the third runs
// GCPool over it in a loop, deleting retired pack generations as it goes.
// Only the commit lock orders them. Every run then reads back, in this
// process, byte for byte what its recorder last put under each key.
func TestRecordersInSeveralProcessesShareAPool(t *testing.T) {
	if part := os.Getenv(poolChildEnv); part != "" {
		if err := runPoolChild(strings.Fields(part)); err != nil {
			t.Fatal(err)
		}
		return
	}
	base := t.TempDir()
	child := func(part string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecordersInSeveralProcessesShareAPool$", "-test.count=1")
		cmd.Env = append(os.Environ(), poolChildEnv+"="+part)
		return cmd
	}
	run := func(cmd *exec.Cmd, errs chan<- error) {
		if out, err := cmd.CombinedOutput(); err != nil {
			errs <- fmt.Errorf("%s: %v\n%s", cmd.Env[len(cmd.Env)-1], err, out)
		}
	}
	errs := make(chan error, 3)
	var gc, recorders sync.WaitGroup
	gc.Add(1)
	go func() {
		defer gc.Done()
		run(child("gc "+base), errs)
	}()
	for n := range 2 {
		recorders.Add(1)
		go func() {
			defer recorders.Done()
			run(child(fmt.Sprintf("record %s %d", base, n)), errs)
		}()
	}
	recorders.Wait()
	if err := os.WriteFile(filepath.Join(base, "done"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	gc.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for n := range 2 {
		for e := multiEpochs - multiKeys; e < multiEpochs; e++ {
			checkPayloadSections(t, filepath.Join(base, fmt.Sprintf("run%d", n)), Key{LoopID: "train", Exec: e % multiKeys}, multiSections(n, e))
		}
	}
}

// runPoolChild does one child's part (see poolChildEnv).
func runPoolChild(part []string) error {
	if len(part) < 2 {
		return fmt.Errorf("child part %q", part)
	}
	base := part[1]
	pool := filepath.Join(base, "POOL")
	switch part[0] {
	case "record":
		if len(part) != 3 {
			return fmt.Errorf("child part %q", part)
		}
		n, err := strconv.Atoi(part[2])
		if err != nil {
			return err
		}
		s, err := OpenWith(filepath.Join(base, fmt.Sprintf("run%d", n)), Options{Pool: pool})
		if err != nil {
			return err
		}
		for e := range multiEpochs {
			if _, err := s.PutSections(Key{LoopID: "train", Exec: e % multiKeys}, multiSections(n, e), 0, 0, 0); err != nil {
				return err
			}
			if e%2 == 1 {
				if _, err := s.GC(); err != nil {
					return err
				}
			}
		}
		return nil
	case "gc":
		deadline := time.Now().Add(time.Minute)
		for passes := 0; ; passes++ {
			_, doneErr := os.Stat(filepath.Join(base, "done"))
			if _, err := os.Stat(filepath.Join(pool, poolMarkerFile)); err == nil {
				if _, err := GCPool(pool, GCOptions{PackRetention: time.Nanosecond}); err != nil {
					return fmt.Errorf("pass %d: %w", passes, err)
				}
			}
			if doneErr == nil {
				return nil
			}
			if !errors.Is(doneErr, os.ErrNotExist) || time.Now().After(deadline) {
				return fmt.Errorf("after %d passes: recorders not done: %v", passes, doneErr)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return fmt.Errorf("child part %q", part)
}
