#include <gtest/gtest.h>

#include <thread>

#include "src/ninep/client.h"
#include "src/ninep/fcall.h"
#include "src/ninep/ramfs.h"
#include "src/ninep/server.h"
#include "src/ninep/transport.h"
#include "src/ns/namespace.h"
#include "src/ns/proc.h"
#include "src/obs/metrics.h"

namespace plan9 {
namespace {

TEST(Fcall, PackUnpackRoundTripsEveryType) {
  // One representative of each T message plus tricky R messages.
  std::vector<Fcall> msgs = {
      TnopMsg(),
      TsessionMsg(),
      TattachMsg(3, "presotto", ""),
      TcloneMsg(3, 4),
      TwalkMsg(4, "net"),
      TclwalkMsg(4, 9, "tcp"),
      TopenMsg(4, kORdWr),
      TcreateMsg(4, "data", 0664, kOWrite),
      TreadMsg(4, 1 << 20, 512),
      TwriteMsg(4, 7, ToBytes("hello, world")),
      TclunkMsg(4),
      TremoveMsg(4),
      TstatMsg(4),
      TflushMsg(77),
      RerrorMsg(5, "file does not exist"),
  };
  Dir d;
  d.name = "clone";
  d.uid = "bootes";
  d.gid = "bootes";
  d.qid = Qid{42, 7};
  d.mode = 0664;
  d.length = 123456789;
  d.type = 'I';
  msgs.push_back(TwstatMsg(4, d));

  for (auto& m : msgs) {
    m.tag = 99;
    auto packed = m.Pack();
    ASSERT_TRUE(packed.ok()) << FcallTypeName(m.type);
    auto back = Fcall::Unpack(*packed);
    ASSERT_TRUE(back.ok()) << FcallTypeName(m.type);
    EXPECT_EQ(back->type, m.type);
    EXPECT_EQ(back->tag, m.tag);
    EXPECT_EQ(back->fid, m.fid) << FcallTypeName(m.type);
    EXPECT_EQ(back->name, m.name);
    EXPECT_EQ(back->uname, m.uname);
    EXPECT_EQ(back->ename, m.ename);
    EXPECT_EQ(back->data, m.data);
    EXPECT_EQ(back->offset, m.offset);
    if (m.type == FcallType::kTwstat) {
      EXPECT_EQ(back->stat.name, d.name);
      EXPECT_EQ(back->stat.qid, d.qid);
      EXPECT_EQ(back->stat.length, d.length);
    }
  }
}

TEST(Fcall, UnpackRejectsGarbage) {
  EXPECT_FALSE(Fcall::Unpack(Bytes{}).ok());
  EXPECT_FALSE(Fcall::Unpack(Bytes{0x00, 0x01}).ok());
  EXPECT_FALSE(Fcall::Unpack(Bytes{54, 0, 0}).ok());  // Terror is illegal
  // Truncated Twalk.
  auto walk = TwalkMsg(1, "x");
  walk.tag = 1;
  auto packed = walk.Pack();
  ASSERT_TRUE(packed.ok());
  packed->resize(packed->size() - 5);
  EXPECT_FALSE(Fcall::Unpack(*packed).ok());
}

TEST(Fcall, DirPackIsExactly116Bytes) {
  Dir d;
  d.name = "helix";
  Bytes out;
  d.Pack(&out);
  EXPECT_EQ(out.size(), kDirLen);
}

TEST(Fcall, LongNamesTruncateSafely) {
  Fcall m = TwalkMsg(1, std::string(100, 'x'));
  m.tag = 1;
  auto packed = m.Pack();
  ASSERT_TRUE(packed.ok());
  auto back = Fcall::Unpack(*packed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name.size(), kNameLen - 1);
}

class ClientServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.MkdirAll("net/tcp").ok());
    ASSERT_TRUE(fs_.WriteFile("lib/ndb/local", "sys=helix\n").ok());
    auto [a, b] = PipeTransport::Make();
    server_ = std::make_unique<NinepServer>(&fs_, std::move(a));
    client_ = std::make_unique<NinepClient>(std::move(b));
  }

  RamFs fs_;
  std::unique_ptr<NinepServer> server_;
  std::unique_ptr<NinepClient> client_;
};

TEST_F(ClientServerTest, SessionAttachWalkReadWrite) {
  ASSERT_TRUE(client_->Session().ok());
  uint32_t root = client_->AllocFid();
  auto rq = client_->Attach(root, "philw", "");
  ASSERT_TRUE(rq.ok());
  EXPECT_TRUE(rq->IsDir());

  uint32_t f = client_->AllocFid();
  auto q = client_->CloneWalk(root, f, {"lib", "ndb", "local"});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsDir());

  ASSERT_TRUE(client_->Open(f, kORead).ok());
  auto data = client_->Read(f, 0, 512);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "sys=helix\n");
  ASSERT_TRUE(client_->Clunk(f).ok());
}

TEST_F(ClientServerTest, CreateWriteReadBack) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  uint32_t f = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, f, {"net"}).ok());
  ASSERT_TRUE(client_->Create(f, "notes", 0664, kOWrite).ok());
  ASSERT_TRUE(client_->Write(f, 0, ToBytes("remember the milk")).ok());
  ASSERT_TRUE(client_->Clunk(f).ok());

  uint32_t g = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, g, {"net", "notes"}).ok());
  ASSERT_TRUE(client_->Open(g, kORead).ok());
  auto data = client_->Read(g, 9, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "the milk");
}

TEST_F(ClientServerTest, WalkToMissingFileFails) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  uint32_t f = client_->AllocFid();
  auto q = client_->CloneWalk(root, f, {"no", "such", "path"});
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.error().message(), kErrNotExist);
}

TEST_F(ClientServerTest, DirectoryReadListsEntries) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  ASSERT_TRUE(client_->Open(root, kORead).ok());
  auto data = client_->Read(root, 0, kDirLen * 16);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size() % kDirLen, 0u);
  std::vector<std::string> names;
  ByteReader r(*data);
  while (r.remaining() >= kDirLen) {
    auto d = Dir::Unpack(&r);
    ASSERT_TRUE(d.ok());
    names.push_back(d->name);
  }
  EXPECT_EQ(names.size(), 2u);  // net, lib
  EXPECT_NE(std::find(names.begin(), names.end(), "net"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lib"), names.end());
}

TEST_F(ClientServerTest, UnalignedDirectoryReadFails) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  ASSERT_TRUE(client_->Open(root, kORead).ok());
  EXPECT_FALSE(client_->Read(root, 3, 100).ok());
}

TEST_F(ClientServerTest, RemoveAndRename) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());

  // Rename lib -> library via wstat.
  uint32_t f = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, f, {"lib"}).ok());
  auto d = client_->Stat(f);
  ASSERT_TRUE(d.ok());
  d->name = "library";
  ASSERT_TRUE(client_->Wstat(f, *d).ok());
  ASSERT_TRUE(client_->Clunk(f).ok());

  uint32_t g = client_->AllocFid();
  EXPECT_TRUE(client_->CloneWalk(root, g, {"library", "ndb"}).ok());
  ASSERT_TRUE(client_->Clunk(g).ok());

  // Remove a file.
  uint32_t h = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, h, {"library", "ndb", "local"}).ok());
  ASSERT_TRUE(client_->Remove(h).ok());
  uint32_t i = client_->AllocFid();
  EXPECT_FALSE(client_->CloneWalk(root, i, {"library", "ndb", "local"}).ok());
}

TEST_F(ClientServerTest, ConcurrentRpcsInterleave) {
  // The mount driver "demultiplexes among processes using the file server":
  // hammer the server from several threads over one connection.
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  constexpr int kThreads = 4;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; i++) {
        uint32_t f = client_->AllocFid();
        std::string name = "f" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(client_->CloneWalk(root, f, {"net"}).ok());
        ASSERT_TRUE(client_->Create(f, name, 0664, kOWrite).ok());
        ASSERT_TRUE(client_->Write(f, 0, ToBytes(name)).ok());
        ASSERT_TRUE(client_->Clunk(f).ok());
        uint32_t g = client_->AllocFid();
        ASSERT_TRUE(client_->CloneWalk(root, g, {"net", name}).ok());
        ASSERT_TRUE(client_->Open(g, kORead).ok());
        auto data = client_->Read(g, 0, 100);
        ASSERT_TRUE(data.ok());
        EXPECT_EQ(ToString(*data), name);
        ASSERT_TRUE(client_->Clunk(g).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

TEST_F(ClientServerTest, ServerShutdownFailsPendingRpcs) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  server_->Shutdown();
  uint32_t f = client_->AllocFid();
  EXPECT_FALSE(client_->CloneWalk(root, f, {"net"}).ok());
}

// One side of a 9P connection carried by two stream pipes, one per
// direction.  A single pipe carrying traffic both ways holds each end's
// stream chain lock while delivering into the other end, an order
// ThreadSanitizer reports as an inversion.
class PipePairTransport : public MsgTransport {
 public:
  PipePairTransport(std::unique_ptr<MsgTransport> in, std::unique_ptr<MsgTransport> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  Result<Bytes> ReadMsg() override { return in_->ReadMsg(); }
  Status WriteMsg(Bytes msg) override { return out_->WriteMsg(std::move(msg)); }
  void Close() override {
    in_->Close();
    out_->Close();
  }

 private:
  std::unique_ptr<MsgTransport> in_, out_;
};

TEST(NinepServerWorkers, EachRequestWakesOneIdleWorker) {
  // The reader queues each request for one of the server's workers.  Waking
  // the whole pool for each one would cost about 3 idle wakeups per RPC:
  // one worker takes the request, the others find nothing and sleep again.
  RamFs fs;
  Proc proc(std::make_shared<Namespace>(&fs));
  auto tx = proc.Pipe();  // client -> server
  auto rx = proc.Pipe();  // server -> client
  ASSERT_TRUE(tx.ok() && rx.ok());
  NinepServer server(&fs, std::make_unique<PipePairTransport>(
                              proc.TransportForFd(tx->second, true),
                              proc.TransportForFd(rx->first, true)));
  NinepClient client(std::make_unique<PipePairTransport>(
      proc.TransportForFd(rx->second, true), proc.TransportForFd(tx->first, true)));
  ASSERT_TRUE(client.Session().ok());
  obs::Counter& idle =
      obs::MetricsRegistry::Default().CounterNamed("ninep.srv.idle-wakeups");
  uint64_t before = idle.value();
  constexpr int kRpcs = 200;
  for (int i = 0; i < kRpcs; i++) {
    ASSERT_TRUE(client.Rpc(TnopMsg()).ok());
  }
  EXPECT_LE(idle.value() - before, static_cast<uint64_t>(kRpcs / 10));
}

TEST(FramedTransport, RoundTripsOverByteStream) {
  // Simulate a TCP-ish byte channel with a raw byte queue.
  auto q = std::make_shared<Queue>();
  FramedMsgTransport tx(
      [](uint8_t*, size_t) -> Result<size_t> { return Error("write only"); },
      [q](const uint8_t* data, size_t n) -> Status {
        // Deliver bytes in awkward small chunks to prove reassembly works.
        for (size_t i = 0; i < n; i += 3) {
          size_t c = std::min<size_t>(3, n - i);
          (void)q->PutNoBlock(AllocDataBlock(Bytes(data + i, data + i + c)));
        }
        return Status::Ok();
      },
      nullptr);
  FramedMsgTransport rx(
      [q](uint8_t* buf, size_t n) -> Result<size_t> {
        auto b = q->Get();
        if (b == nullptr) {
          return size_t{0};
        }
        size_t take = std::min(n, b->size());
        memcpy(buf, b->payload(), take);
        b->rp += take;
        if (b->size() > 0) {
          q->PutBack(std::move(b));
        }
        return take;
      },
      [](const uint8_t*, size_t) -> Status { return Error("read only"); }, nullptr);

  auto msg = TwriteMsg(7, 0, ToBytes("framed message body"));
  msg.tag = 5;
  auto packed = msg.Pack();
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(tx.WriteMsg(*packed).ok());
  ASSERT_TRUE(tx.WriteMsg(*packed).ok());
  for (int i = 0; i < 2; i++) {
    auto got = rx.ReadMsg();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *packed);
  }
  q->Close();
  auto eof = rx.ReadMsg();
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->empty());
}

}  // namespace
}  // namespace plan9
