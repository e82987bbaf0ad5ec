// Package mailsvc is a small SMTP-flavoured mail service, one of the
// backend servers the paper's web applications reach through a "mail access
// API" (Figure 1). It provides an in-memory message store plus a
// line-oriented TCP protocol for submission (HELO/MAIL/RCPT/DATA) and
// retrieval (LIST/RETR), so the broker framework can treat mail as just
// another brokered service.
package mailsvc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Message is one stored mail message.
type Message struct {
	From string
	Body string
	// Seq is the 1-based position within the recipient's mailbox.
	Seq int
}

// Store errors.
var (
	ErrNoMailbox  = errors.New("mailsvc: no such mailbox")
	ErrNoMessage  = errors.New("mailsvc: no such message")
	ErrBadAddress = errors.New("mailsvc: malformed address")
)

// Store is the in-memory mailbox store, safe for concurrent use. The zero
// value is not usable; call NewStore.
type Store struct {
	mu    sync.RWMutex
	boxes map[string][]Message
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{boxes: make(map[string][]Message)}
}

// ValidAddress checks the minimal local@domain shape.
func ValidAddress(addr string) bool {
	local, domain, ok := strings.Cut(addr, "@")
	return ok && local != "" && domain != "" && !strings.ContainsAny(addr, " \t<>")
}

// Deliver appends a message to each recipient's mailbox and returns the
// number of deliveries.
func (s *Store) Deliver(from string, to []string, body string) (int, error) {
	if !ValidAddress(from) {
		return 0, fmt.Errorf("%w: %q", ErrBadAddress, from)
	}
	if len(to) == 0 {
		return 0, fmt.Errorf("%w: no recipients", ErrBadAddress)
	}
	for _, rcpt := range to {
		if !ValidAddress(rcpt) {
			return 0, fmt.Errorf("%w: %q", ErrBadAddress, rcpt)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rcpt := range to {
		key := strings.ToLower(rcpt)
		msg := Message{From: from, Body: body, Seq: len(s.boxes[key]) + 1}
		s.boxes[key] = append(s.boxes[key], msg)
	}
	return len(to), nil
}

// List returns copies of the messages in a mailbox (empty slice when the
// mailbox exists but is empty; ErrNoMailbox when it has never received
// mail).
func (s *Store) List(user string) ([]Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	box, ok := s.boxes[strings.ToLower(user)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMailbox, user)
	}
	out := make([]Message, len(box))
	copy(out, box)
	return out, nil
}

// Retr returns one message by 1-based sequence number.
func (s *Store) Retr(user string, seq int) (Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	box, ok := s.boxes[strings.ToLower(user)]
	if !ok {
		return Message{}, fmt.Errorf("%w: %s", ErrNoMailbox, user)
	}
	if seq < 1 || seq > len(box) {
		return Message{}, fmt.Errorf("%w: %s/%d", ErrNoMessage, user, seq)
	}
	return box[seq-1], nil
}
