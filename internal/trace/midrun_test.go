package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenSpansVisibleMidRun exercises the mid-run contract: a span that
// has started but not finished appears in OpenSpans and in the Chrome
// export (tagged open), and migrates to Events once closed.
func TestOpenSpansVisibleMidRun(t *testing.T) {
	r := New()
	end := r.Span(1, "phase", "network partition")
	time.Sleep(2 * time.Millisecond)

	open := r.OpenSpans()
	if len(open) != 1 {
		t.Fatalf("OpenSpans = %d spans, want 1", len(open))
	}
	if open[0].Label != "network partition" || open[0].Machine != 1 {
		t.Fatalf("unexpected open span %+v", open[0])
	}
	if open[0].End <= open[0].Start {
		t.Fatalf("open span end %v not after start %v", open[0].End, open[0].Start)
	}
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("unfinished span leaked into Events: %+v", got)
	}

	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "network partition" && e.Ph == "X" {
			found = true
			if e.Args["open"] != true {
				t.Errorf("in-flight span not tagged open: args=%v", e.Args)
			}
		}
	}
	if !found {
		t.Fatal("in-flight span missing from mid-run Chrome export")
	}

	end(128)
	if len(r.OpenSpans()) != 0 {
		t.Fatal("closed span still reported open")
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Bytes != 128 {
		t.Fatalf("closed span not recorded: %+v", ev)
	}
}

// TestConcurrentChromeExport hammers WriteChromeJSON (and the other
// exporters) while spans are being recorded and closed from many
// goroutines — the /trace endpoint's access pattern. Run under -race.
// Each recorder writes at most maxSpans spans, so memory stays bounded
// however far the exports fall behind on a busy host; the exports start
// only once every recorder has written its first span, so they overlap
// with recording.
func TestConcurrentChromeExport(t *testing.T) {
	const recorders, maxSpans = 4, 1000
	r := New()
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	started.Add(recorders)
	for m := 0; m < recorders; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			labels := []string{"histogram", "network partition", "local", "build-probe"}
			for i := 0; i < maxSpans; i++ {
				select {
				case <-stop:
					return
				default:
				}
				end := r.Span(m, "phase", labels[i%len(labels)])
				end(int64(i))
				if i == 0 {
					started.Done()
				}
			}
		}(m)
	}
	started.Wait()
	for i := 0; i < 50; i++ {
		if err := r.WriteChromeJSON(io.Discard); err != nil {
			t.Fatalf("mid-run export %d: %v", i, err)
		}
		var sb strings.Builder
		r.Gantt(&sb, 32)
		r.Summary(io.Discard)
		_ = r.Total()
		_ = r.OpenSpans()
	}
	close(stop)
	wg.Wait()
	// Final export must still be valid JSON.
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("final export is not valid JSON")
	}
}
