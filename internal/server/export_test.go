package server

// WriteBufSize is the fill at which a session stops queueing behind another
// writer.
const WriteBufSize = wbufSize

// MaxSessionBuffer returns the largest write buffer any live session holds.
func MaxSessionBuffer(s *Server) int {
	n := 0
	for _, sess := range s.snapshotSessions() {
		sess.wmu.Lock()
		n = max(n, len(sess.wbuf))
		sess.wmu.Unlock()
	}
	return n
}
