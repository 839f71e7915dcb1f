package collector

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// TestDrainClosesRacingTrunks races trunk upgrades and Hello handling
// against Drain. Every trunk must end within the grace: a trunk
// accepted after Drain's sweep, or one whose Hello cleared the deadline
// Drain had just forced, would outlive the collector.
func TestDrainClosesRacingTrunks(t *testing.T) {
	const rounds, trunks = 20, 8
	const grace = 500 * time.Millisecond
	for round := 0; round < rounds; round++ {
		c, err := New(Config{
			Store:      store.New(),
			Anonymizer: ipmeta.NewAnonymizer([]byte("drain-race")),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(c.ServeTrunk))
		url := "ws" + strings.TrimPrefix(ts.URL, "http")

		conns := make(chan *wsproto.Conn, trunks)
		var wg sync.WaitGroup
		for i := 0; i < trunks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				conn, _, err := (&wsproto.Dialer{}).Dial(ctx, url)
				if err != nil {
					return
				}
				conns <- conn
				// Spread the Hellos across the drain.
				time.Sleep(time.Duration(i) * 100 * time.Microsecond)
				_ = conn.WriteMessage(wsproto.OpBinary, trunk.AppendFrame(nil, trunk.Frame{
					Type: trunk.Hello, Version: trunk.Version, GatewayID: fmt.Sprintf("gw-%d", i),
				}))
			}(i)
		}
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		if dropped := c.Drain(grace); dropped != 0 {
			t.Fatalf("round %d: drain left %d trunks open past the grace", round, dropped)
		}
		wg.Wait()
		close(conns)
		for conn := range conns {
			_ = conn.SetReadDeadline(time.Now().Add(grace))
			for {
				_, _, err := conn.ReadMessage()
				if err == nil {
					continue
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatalf("round %d: trunk still open after drain", round)
				}
				break
			}
			_ = conn.NetConn().Close()
		}
		ts.Close()
	}
}
