package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// ErrServerClosed is returned by Server.Serve after Shutdown.
var ErrServerClosed = errors.New("dist: server closed")

// Server hosts an RPC service with graceful shutdown: Shutdown stops
// accepting, drains in-flight calls for a bounded grace period, then
// closes the remaining connections. It is the body of the focus-worker
// daemon.
type Server struct {
	rpcSrv *rpc.Server

	mu     sync.Mutex
	lis    net.Listener
	conns  map[io.ReadWriteCloser]struct{}
	closed bool

	active int64 // in-flight RPC calls (read but not yet answered)
}

// NewServer registers service under ServiceName.
func NewServer(service interface{}) (*Server, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, service); err != nil {
		return nil, fmt.Errorf("dist: register: %w", err)
	}
	return &Server{rpcSrv: srv, conns: map[io.ReadWriteCloser]struct{}{}}, nil
}

// Serve accepts RPC connections on lis until lis fails or Shutdown is
// called (then it returns ErrServerClosed).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go serveConn(s.rpcSrv, conn, dialTimeout, s)
	}
}

// ActiveCalls returns the number of in-flight RPC calls.
func (s *Server) ActiveCalls() int64 { return atomic.LoadInt64(&s.active) }

// Shutdown stops accepting new connections, waits up to grace for
// in-flight calls to drain, then closes all remaining connections.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	deadline := time.Now().Add(grace)
	for atomic.LoadInt64(&s.active) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[io.ReadWriteCloser]struct{}{}
	s.mu.Unlock()
}

func (s *Server) dropConn(c io.ReadWriteCloser) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Serve accepts RPC connections on lis and serves service until lis is
// closed (no graceful drain; use Server for that). Kept for in-test and
// example servers.
func Serve(lis net.Listener, service interface{}) error {
	srv, err := NewServer(service)
	if err != nil {
		return err
	}
	return srv.Serve(lis)
}
