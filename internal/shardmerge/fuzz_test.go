package shardmerge

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/streamaudit"
)

// fuzzWorld builds a small two-shard workload whose JSON exports seed
// the merge fuzzer and the malformed-export table.
func fuzzWorld(t testing.TB) (*shardWorld, [][]byte) {
	w := newShardWorld(t, 11, 2)
	w.populate(t, rand.New(rand.NewSource(11)), 40)
	var docs [][]byte
	for _, exp := range w.exports(t) {
		b, err := json.Marshal(exp)
		if err != nil {
			t.Fatalf("marshal export: %v", err)
		}
		docs = append(docs, b)
	}
	return w, docs
}

// FuzzMergeExport feeds two arbitrary documents through the router's
// path — JSON decode, Merge, NewStatic, Report — which must reject
// malformed exports with an error, never panic.
func FuzzMergeExport(f *testing.F) {
	w, docs := fuzzWorld(f)
	f.Add(docs[0], docs[1])
	f.Add(docs[1], []byte(`{}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var shards []*streamaudit.Export
		for _, doc := range [][]byte{a, b} {
			exp := new(streamaudit.Export)
			if json.Unmarshal(doc, exp) != nil {
				return
			}
			shards = append(shards, exp)
		}
		merged := Merge(shards)
		if merged == nil {
			if shards[0].Validate() == nil && shards[1].Validate() == nil {
				t.Fatal("Merge returned nil for two valid exports")
			}
			return
		}
		eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, merged)
		if err != nil {
			return
		}
		inputs := []audit.CampaignInput{{ID: "absent", Report: &adnet.VendorReport{}}}
		for id := range merged.Campaigns {
			inputs = append(inputs, audit.CampaignInput{ID: id, Keywords: []string{"news"}, Report: &adnet.VendorReport{}})
		}
		_, _ = eng.Report(inputs)
		for _, s := range eng.Summaries() {
			_, _, _ = eng.Audit(s.CampaignID)
		}
	})
}

// TestMergeRejectsMalformedExport corrupts one field of a real export
// at a time: Validate names the fault, Merge returns nil, NewStatic
// and Client.FetchMerged return errors.
func TestMergeRejectsMalformedExport(t *testing.T) {
	w, docs := fuzzWorld(t)
	campaign := func(exp *streamaudit.Export) *streamaudit.CampaignExport {
		ids := make([]string, 0, len(exp.Campaigns))
		for id, ce := range exp.Campaigns {
			if len(ce.UserOf) > 0 {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		return exp.Campaigns[ids[0]]
	}
	cases := []struct {
		name    string
		corrupt func(*streamaudit.Export)
		want    string
	}{
		{"null campaign", func(e *streamaudit.Export) { e.Campaigns["ghost"] = nil }, "is null"},
		{"user id past the dictionary", func(e *streamaudit.Export) {
			c := campaign(e)
			c.UserOf[0] = int32(len(c.Users))
		}, "out of range"},
		{"negative publisher id", func(e *streamaudit.Export) { campaign(e).PubOf[0] = -1 }, "out of range"},
		{"short slot slice", func(e *streamaudit.Export) {
			c := campaign(e)
			c.VisFrac = c.VisFrac[1:]
		}, "lengths differ"},
		{"user_dc misaligned", func(e *streamaudit.Export) {
			c := campaign(e)
			c.UserDC = append(c.UserDC, true)
		}, "user_dc"},
		{"short timestamps", func(e *streamaudit.Export) {
			c := campaign(e)
			c.Times = c.Times[:len(c.Times)-1]
		}, "lengths differ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bad streamaudit.Export
			if err := json.Unmarshal(docs[0], &bad); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&bad)
			var good streamaudit.Export
			if err := json.Unmarshal(docs[1], &good); err != nil {
				t.Fatal(err)
			}
			if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
			if m := Merge([]*streamaudit.Export{&good, &bad}); m != nil {
				t.Fatal("Merge accepted a malformed shard")
			}
			if _, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, &bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewStatic = %v, want an error containing %q", err, tc.want)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
				_ = json.NewEncoder(rw).Encode(&bad)
			}))
			defer srv.Close()
			cl := &Client{Shards: []string{srv.URL}}
			if _, err := cl.FetchMerged(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FetchMerged = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
