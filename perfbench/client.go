package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// expect issues one request and returns the whole body, failing unless
// the response status is want.
func expect(hc *http.Client, want int, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d, want %d: %.200s", method, url, resp.StatusCode, want, data)
	}
	return data, nil
}

// series holds one scrape of a Prometheus text exposition: sample value
// by series, where a series is the metric name plus its label set as
// printed ("name" or `name{a="b"}`).
type series map[string]float64

// scrape reads the metrics a tpmd process exposes at url.
func scrape(hc *http.Client, url string) (series, error) {
	data, err := expect(hc, http.StatusOK, http.MethodGet, url, "", nil)
	if err != nil {
		return nil, err
	}
	out := make(series)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric whose labels contain all
// of the given `key="value"` pairs.
func (s series) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after minus before for one metric (summed over label sets
// matching labels).
func delta(before, after series, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// sseEvent is one Server-Sent Event (its id is not needed here).
type sseEvent struct {
	kind string
	data []byte
}

// sseStream reads a text/event-stream response on its own goroutine and
// hands each event to C. close ends the stream and waits for the reader.
type sseStream struct {
	C    chan sseEvent
	body io.ReadCloser
	done chan struct{}
	stop chan struct{}
	err  error // why the reader ended; read only after done is closed
}

// openSSE subscribes to url on a client of its own, so the stream holds
// a second connection while requests use the first.
func openSSE(hc *http.Client, url string) (*sseStream, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	s := &sseStream{C: make(chan sseEvent), body: resp.Body, done: make(chan struct{}), stop: make(chan struct{})}
	go s.read()
	return s, nil
}

func (s *sseStream) read() {
	defer close(s.done)
	br := bufio.NewReaderSize(s.body, 1<<20)
	var ev sseEvent
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			s.err = err
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev.kind != "" || ev.data != nil {
				select {
				case s.C <- ev:
				case <-s.stop:
					return
				}
			}
			ev = sseEvent{}
		case line[0] == ':':
			// comment (heartbeat)
		default:
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(field) {
			case "event":
				ev.kind = string(value)
			case "data":
				ev.data = append([]byte(nil), value...)
			}
		}
	}
}

// next waits up to timeout for the next event.
func (s *sseStream) next(timeout time.Duration) (sseEvent, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case ev := <-s.C:
		return ev, nil
	case <-s.done:
		return sseEvent{}, fmt.Errorf("event stream ended: %v", s.err)
	case <-t.C:
		return sseEvent{}, fmt.Errorf("no event within %v", timeout)
	}
}

// close ends the stream and waits for its reader to exit.
func (s *sseStream) close() {
	close(s.stop)
	s.body.Close()
	<-s.done
}
