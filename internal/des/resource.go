package des

// Server models a unit-capacity resource with FIFO service, the building
// block for link and port models: requests queue, each occupies the server
// for a caller-provided service time, and a completion handler fires when
// service finishes.
//
// The completion path is allocation-free: the service end is scheduled
// through the server itself (serverEnd), not a closure, and the wait
// queue is a head-compacted slice whose capacity is reused instead of
// slid away.
type Server struct {
	sched   *Scheduler
	busy    bool
	queue   []serverReq
	qhead   int
	curDone Handler // completion handler of the request in service
	// Busy accumulates total occupied time, for utilization reporting.
	Busy Time
	// Served counts completed requests.
	Served uint64
}

type serverReq struct {
	service Time
	done    Handler
}

// serverEnd is the Server as the handler of its own service-end event.
type serverEnd Server

// Fire completes the request in service.
func (e *serverEnd) Fire() { (*Server)(e).finishService() }

// NewServer returns an idle server bound to sched.
func NewServer(sched *Scheduler) *Server {
	return &Server{sched: sched}
}

// Request enqueues a job needing the given service time; done (may be nil)
// fires at completion. Jobs are served in arrival order.
func (s *Server) Request(service Time, done Handler) {
	s.queue, s.qhead = compact(s.queue, s.qhead)
	s.queue = append(s.queue, serverReq{service: service, done: done})
	if !s.busy {
		s.startNext()
	}
}

// QueueLen returns the number of jobs waiting or in service.
func (s *Server) QueueLen() int {
	n := len(s.queue) - s.qhead
	if s.busy {
		n++
	}
	return n
}

// Utilization returns the fraction of time the server was busy up to now.
func (s *Server) Utilization() float64 {
	now := s.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(s.Busy) / float64(now)
}

func (s *Server) startNext() {
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
		return
	}
	req := s.queue[s.qhead]
	s.queue[s.qhead] = serverReq{} // release the done handler
	s.qhead++
	s.busy = true
	s.Busy += req.service
	s.curDone = req.done
	s.sched.After(req.service, (*serverEnd)(s))
}

// finishService completes the in-service request: busy is cleared before
// the done handler fires, so a re-entrant Request starts service
// immediately. Such a Request has already started the next job, so the
// backlog is served only if the handler left the server idle.
func (s *Server) finishService() {
	s.busy = false
	s.Served++
	done := s.curDone
	s.curDone = nil
	if done != nil {
		done.Fire()
	}
	if !s.busy {
		s.startNext()
	}
}

// TokenPool is a counting-semaphore resource used for credit-based flow
// control: acquirers wait (FIFO) until credits are available.
type TokenPool struct {
	sched   *Scheduler
	credits int
	waiters []tokenWait
	whead   int

	// MaxWaiters records the high-water mark of the wait queue.
	MaxWaiters int
}

type tokenWait struct {
	n    int
	cont Handler
}

// NewTokenPool returns a pool holding n credits.
func NewTokenPool(sched *Scheduler, n int) *TokenPool {
	return &TokenPool{sched: sched, credits: n}
}

// Available returns the current credit count.
func (p *TokenPool) Available() int { return p.credits }

// Acquire takes n credits, firing cont once they are held. If credits are
// available the continuation fires via a zero-delay event (never inline,
// so callers cannot observe re-entrant state).
func (p *TokenPool) Acquire(n int, cont Handler) {
	if n <= 0 {
		p.sched.After(0, cont)
		return
	}
	p.waiters, p.whead = compact(p.waiters, p.whead)
	p.waiters = append(p.waiters, tokenWait{n: n, cont: cont})
	if w := len(p.waiters) - p.whead; w > p.MaxWaiters {
		p.MaxWaiters = w
	}
	p.dispatch()
}

// Waiters returns the number of acquirers currently queued for credits —
// the instantaneous credit-stall depth sampled by the observability layer.
func (p *TokenPool) Waiters() int { return len(p.waiters) - p.whead }

// Release returns n credits to the pool and wakes eligible waiters.
func (p *TokenPool) Release(n int) {
	p.credits += n
	p.dispatch()
}

// dispatch grants credits to waiters strictly in FIFO order; a large
// request at the head blocks later small ones (no starvation).
func (p *TokenPool) dispatch() {
	for p.whead < len(p.waiters) && p.waiters[p.whead].n <= p.credits {
		w := p.waiters[p.whead]
		p.waiters[p.whead] = tokenWait{} // release the continuation
		p.whead++
		p.credits -= w.n
		p.sched.After(0, w.cont)
	}
	if p.whead == len(p.waiters) {
		p.waiters = p.waiters[:0]
		p.whead = 0
	}
}

// compact readies a head-consumed wait queue, whose entries before head
// are consumed (and zeroed), for one more append. An empty queue restarts at the front. A full one whose
// consumed head is at least half of it moves its live tail down instead of
// letting append regrow past a dead prefix, so a standing backlog reuses
// its storage. Order is unchanged.
func compact[T any](q []T, head int) ([]T, int) {
	switch {
	case head == len(q):
		return q[:0], 0
	case len(q) == cap(q) && 2*head >= len(q):
		n := copy(q, q[head:])
		clear(q[n:])
		return q[:n], 0
	}
	return q, head
}
