// Command focus-worker runs a standalone Focus assembly worker: it hosts
// the distributed graph algorithm service (transitive reduction,
// containment removal, error removal, path extraction) over TCP RPC so a
// master (cmd/focus with -worker-addrs) can distribute hybrid-graph
// partitions across processes or machines. This is the repository's
// stand-in for the paper's MPI ranks.
//
// On SIGINT/SIGTERM the worker shuts down gracefully: it stops accepting
// connections, drains in-flight RPC calls for up to -grace, then closes
// the remaining connections. The -healthcheck mode connects to a running
// worker the way a master does (wire handshake, then the Ping RPC; exit 0
// = healthy and of this build's wire version), for use by process
// supervisors and container orchestrators.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:7465", "address to listen on")
		grace  = flag.Duration("grace", 10*time.Second, "in-flight call drain budget on SIGINT/SIGTERM")
		health = flag.Bool("healthcheck", false, "probe the worker at -listen (wire handshake + Ping RPC) and exit 0 (healthy, same wire version) or 1")
	)
	flag.Parse()

	if *health {
		if err := dist.HealthCheck(*listen, 3*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "focus-worker:", err)
			os.Exit(1)
		}
		fmt.Printf("focus-worker at %s is healthy\n", *listen)
		return
	}

	// Each master connection gets its own service: the partitions a
	// master Loads go when its connection closes.
	srv, err := dist.NewServer(&assembly.Service{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "focus-worker:", err)
		os.Exit(1)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focus-worker:", err)
		os.Exit(1)
	}
	fmt.Printf("focus-worker listening on %s\n", lis.Addr())

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("focus-worker: %s: draining up to %v (%d call(s) in flight)\n", sig, *grace, srv.ActiveCalls())
		srv.Shutdown(*grace)
		close(done)
	}()

	err = srv.Serve(lis)
	if err == dist.ErrServerClosed {
		<-done // let Shutdown finish draining before exiting
		fmt.Println("focus-worker: shut down cleanly")
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "focus-worker:", err)
		os.Exit(1)
	}
}
