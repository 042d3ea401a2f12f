#include "net/conn.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace mqpi::net {
namespace {

// One read chunk; frames larger than this simply take several reads.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Status ListenTcp(const std::string& host, std::uint16_t port, int backlog,
                 int* fd, std::uint16_t* bound_port) {
  *fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (*fd < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  Status status;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    status = Status::InvalidArgument("bad listen address: " + host);
  } else if (::bind(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
                 0 ||
             ::listen(*fd, backlog) < 0) {
    status = Status::Internal(std::string("bind/listen failed: ") +
                              std::strerror(errno));
  }
  if (!status.ok()) {
    ::close(*fd);
    *fd = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(*fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return Status::OK();
}

Connection::Connection(int fd, std::uint64_t id, Options options)
    : fd_(fd), id_(id), options_(options) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::ReadFrames(std::vector<Frame>* frames) {
  if (closing_) return true;  // draining goodbye; ignore further input
  for (;;) {
    const std::size_t old_size = read_buf_.size();
    read_buf_.resize(old_size + kReadChunk);
    const ssize_t n = ::recv(fd_, read_buf_.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      read_buf_.resize(old_size + static_cast<std::size_t>(n));
      continue;
    }
    read_buf_.resize(old_size);
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // fatal read error
  }

  // Peel complete frames off the consumed-prefix view.
  for (;;) {
    Frame frame;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(
        read_buf_.data() + read_pos_, read_buf_.size() - read_pos_,
        options_.max_frame_bytes, &frame, &consumed, &error);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kError) {
      // Stream-level corruption: the framing is gone, so answer once
      // and close. QueueFrame never sheds here (queue was just active).
      QueueFrame(std::make_shared<const std::string>(EncodeFrame(
          frame.header.request_id, FrameBody{ErrorReply::From(error)})));
      closing_ = true;
      return true;
    }
    read_pos_ += consumed;
    frames->push_back(std::move(frame));
  }

  // Compact once the consumed prefix dominates the buffer.
  if (read_pos_ > 0 &&
      (read_pos_ == read_buf_.size() || read_pos_ >= kReadChunk)) {
    read_buf_.erase(0, read_pos_);
    read_pos_ = 0;
  }
  return true;
}

bool Connection::QueueFrame(SharedFrame bytes) {
  if (closing_) return true;  // already saying goodbye; drop silently
  if (write_queue_.size() >= options_.write_queue_max_frames ||
      queued_bytes_ + bytes->size() > options_.write_queue_max_bytes) {
    // Slow consumer: drop everything pending, say why, close.
    queued_bytes_ = 0;
    write_queue_.clear();
    write_offset_ = 0;
    write_queue_.push_back(std::make_shared<const std::string>(EncodeFrame(
        0, FrameBody{ErrorReply{StatusCode::kResourceExhausted,
                                "write queue overflow: consumer too slow"}})));
    queued_bytes_ = write_queue_.back()->size();
    closing_ = true;
    shed_ = true;
    return false;
  }
  queued_bytes_ += bytes->size();
  write_queue_.push_back(std::move(bytes));
  stats.queue_hw_frames =
      std::max<std::uint64_t>(stats.queue_hw_frames, write_queue_.size());
  stats.queue_hw_bytes =
      std::max<std::uint64_t>(stats.queue_hw_bytes, queued_bytes_);
  return true;
}

bool Connection::FlushWrites(std::size_t max_write_bytes) {
  std::size_t written_this_round = 0;
  while (!write_queue_.empty()) {
    const std::string& front = *write_queue_.front();
    std::size_t want = front.size() - write_offset_;
    if (max_write_bytes > 0) {
      if (written_this_round >= max_write_bytes) return true;
      want = std::min(want, max_write_bytes - written_this_round);
    }
    const ssize_t n =
        ::send(fd_, front.data() + write_offset_, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // fatal (EPIPE, ECONNRESET, ...)
    }
    written_this_round += static_cast<std::size_t>(n);
    write_offset_ += static_cast<std::size_t>(n);
    queued_bytes_ -= static_cast<std::size_t>(n);
    stats.bytes_sent += static_cast<std::uint64_t>(n);
    if (write_offset_ == front.size()) {
      write_queue_.pop_front();
      write_offset_ = 0;
      ++stats.frames_sent;
    }
  }
  return true;
}

}  // namespace mqpi::net
