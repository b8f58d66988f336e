package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/persist"
)

func TestRunFlagError(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunListenError(t *testing.T) {
	// Occupy a port so ListenAndServe fails immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run([]string{"-addr", ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Errorf("expected bind failure, got %v", err)
	}
}

// TestShutdownKeepsBufferedIngest: events acknowledged by the ingest
// route but still buffered when tpmd gets SIGTERM are flushed into the
// store before the store closes, so they are in the data directory
// after the shutdown.
func TestShutdownKeepsBufferedIngest(t *testing.T) {
	// While this channel is registered, SIGTERM cannot kill the test
	// binary; run's own registration is what makes it drain.
	sigs := make(chan os.Signal, 8)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-data-dir", dir, "-log-level", "error",
			"-ingest-flush-count", "1000", "-ingest-flush-age", "1h"})
	}()

	base := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tpmd never served: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var events strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&events, `{"seq":"s%d","symbol":"A","start":%d,"end":%d}`+"\n", i, i, i+5)
	}
	resp, err := http.Post(base+"/v1/datasets/ev/events", "application/x-ndjson", strings.NewReader(events.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"pending":3`) {
		t.Fatalf("ingest: %d %s, want 202 with 3 events pending", resp.StatusCode, body)
	}

	// run registers for SIGTERM as it starts listening; re-send until it
	// drains, in case the first signal beat that registration.
	for tries := 0; ; tries++ {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(time.Second):
			if tries < 10 {
				continue
			}
			t.Fatal("tpmd did not shut down on SIGTERM")
		}
		break
	}

	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ps.Close()
	datasets, _ := ps.Recovered()
	if st, ok := datasets["ev"]; !ok || st.DB.Len() != 3 {
		t.Fatalf("recovered dataset ev = %+v (found %v), want its 3 sequences", st, ok)
	}
}
