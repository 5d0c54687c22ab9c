package stream

import (
	"sync"
	"testing"
)

// BenchmarkEventPlane measures the mailbox hot path the AC runtime rides
// on: per-message send/recv versus chunked SendBatch/RecvBatch, and the
// contended multi-producer case. The batched variants should show the
// amortization (allocs/op and wakeups divided by the chunk size):
//
//	go test -bench EventPlane -benchmem ./internal/stream
func BenchmarkEventPlane(b *testing.B) {
	const chunk = 64
	b.Run("send-recv", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMailbox[int]()
		for i := 0; i < b.N; i++ {
			m.Send(i)
			m.TryRecv()
		}
	})
	b.Run("sendbatch-recvbatch", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMailbox[int]()
		out := make([]int, chunk)
		in := make([]int, chunk)
		for i := 0; i < b.N; i += chunk {
			m.SendBatch(out)
			for drained := 0; drained < chunk; {
				n, _ := m.RecvBatch(in)
				drained += n
			}
		}
	})
	b.Run("mpsc-4-producers", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMailbox[int]()
		const producers = 4
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				batch := make([]int, chunk)
				for i := p; i < b.N; i += producers * chunk {
					m.SendBatch(batch)
				}
			}(p)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]int, 256)
			for {
				if _, ok := m.RecvBatch(buf); !ok {
					return
				}
			}
		}()
		wg.Wait()
		m.Close()
		<-done
	})
}

// BenchmarkQueueComparison compares the local stream carriers with a
// buffered channel for one-producer/one-consumer hops. Run with:
//
//	go test -bench QueueComparison ./internal/stream
func BenchmarkQueueComparison(b *testing.B) {
	b.Run("mpsc", func(b *testing.B) {
		q := NewMPSC[int]()
		for i := 0; i < b.N; i++ {
			q.Push(i)
			q.Pop()
		}
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 4096)
		for i := 0; i < b.N; i++ {
			ch <- i
			<-ch
		}
	})
	b.Run("mailbox", func(b *testing.B) {
		m := NewMailbox[int]()
		for i := 0; i < b.N; i++ {
			m.Send(i)
			m.TryRecv()
		}
	})
}
