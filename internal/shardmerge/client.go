package shardmerge

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"adaudit/internal/streamaudit"
)

// ExportPath is the collector endpoint serving a shard's
// streamaudit.Export.
const ExportPath = "/api/live/export"

// maxExportBytes bounds one shard's export document (a runaway shard
// must not OOM the router).
const maxExportBytes = 256 << 20

// Client fetches per-shard exports over HTTP and merges them. Shard
// order in Shards is the merge order — keep it identical across
// routers, restarts and the reference single-store audit, or float
// aggregates lose bit-stability (counts stay exact either way).
type Client struct {
	// Shards lists the shard base URLs (for example
	// "http://10.0.0.1:8443") in shard order.
	Shards []string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each per-shard fetch when the caller's context has
	// no earlier deadline (default 10s).
	Timeout time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// FetchExports retrieves every shard's export concurrently, returning
// them in shard order. All shards must answer: one unreachable shard
// fails the fetch, because a merged report silently missing a shard's
// slice of the data is worse than no report.
func (c *Client) FetchExports(ctx context.Context) ([]*streamaudit.Export, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	exports := make([]*streamaudit.Export, len(c.Shards))
	errs := make([]error, len(c.Shards))
	var wg sync.WaitGroup
	for i, base := range c.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			exports[i], errs[i] = c.fetchOne(ctx, base)
		}(i, base)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shardmerge: shard %d (%s): %w", i, c.Shards[i], err)
		}
	}
	return exports, nil
}

// FetchMerged fetches every shard and merges in shard order.
func (c *Client) FetchMerged(ctx context.Context) (*streamaudit.Export, error) {
	exports, err := c.FetchExports(ctx)
	if err != nil {
		return nil, err
	}
	return Merge(exports), nil
}

func (c *Client) fetchOne(ctx context.Context, base string) (*streamaudit.Export, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+ExportPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("export fetch: %s: %s", resp.Status, body)
	}
	var exp streamaudit.Export
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxExportBytes)).Decode(&exp); err != nil {
		return nil, fmt.Errorf("decoding export: %w", err)
	}
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	return &exp, nil
}
