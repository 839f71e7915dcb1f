package router

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// TestDrainClosesRacingUpgrades races beacon and relay-trunk upgrades
// against Drain. Every connection the engine accepted must be closed by
// the drain or refused: one tracked after the sweep would be left open
// until its handshake timeout, outliving the drain.
func TestDrainClosesRacingUpgrades(t *testing.T) {
	const rounds, clients = 10, 16
	const grace = 300 * time.Millisecond
	for round := 0; round < rounds; round++ {
		r, err := New(fastRouterConfig([]string{"ws://" + listenerAddr(t) + "/trunk"}))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/beacon", r)
		mux.HandleFunc("/trunk", r.ServeTrunk)
		ts := httptest.NewServer(mux)
		base := "ws" + strings.TrimPrefix(ts.URL, "http")

		escaped := make(chan string, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				d := &wsproto.Dialer{Header: http.Header{}}
				url := base + "/beacon"
				if i%2 == 1 {
					url = base + "/trunk"
					d.Header.Set(trunk.TokenHeader, testTrunkToken)
				}
				time.Sleep(time.Duration(i) * 50 * time.Microsecond)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				conn, _, err := d.Dial(ctx, url)
				if err != nil {
					return // shed before the upgrade
				}
				defer conn.NetConn().Close()
				// Neither endpoint answers before the client speaks, so
				// the only thing that can end this read in time is the
				// drain's close (or the refusal of a late upgrade).
				_ = conn.SetReadDeadline(time.Now().Add(2 * grace))
				for {
					_, _, err := conn.ReadMessage()
					if err == nil {
						continue
					}
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						escaped <- url
					}
					return
				}
			}(i)
		}
		time.Sleep(time.Duration(round%4) * 150 * time.Microsecond)
		r.Drain(grace)
		wg.Wait()
		close(escaped)
		for url := range escaped {
			t.Errorf("round %d: connection to %s stayed open through the drain", round, url)
		}
		r.Close()
		ts.Close()
		if t.Failed() {
			return
		}
	}
}
