#include "os/kernel_image.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "hw/memory.h"
#include "scenario/scenario.h"
#include "secure/hash.h"
#include "secure/pristine_base.h"
#include "sim/shard.h"

namespace satin::os {
namespace {

KernelImage make_image() { return KernelImage(make_default_map()); }

TEST(KernelImage, SizeMatchesMap) {
  const KernelImage image = make_image();
  EXPECT_EQ(image.size(), image.map().total_size());
  EXPECT_EQ(image.size(), 11'916'240u);
}

TEST(KernelImage, ContentIsDeterministicInSeed) {
  const KernelImage a(make_default_map(), 123);
  const KernelImage b(make_default_map(), 123);
  const KernelImage c(make_default_map(), 124);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_NE(a.bytes(), c.bytes());
}

TEST(KernelImage, SyscallEntryOffsetsAreContiguousEightByteSlots) {
  const KernelImage image = make_image();
  const std::size_t base = image.syscall_entry_offset(0);
  for (int nr = 1; nr < kSyscallTableEntries; ++nr) {
    EXPECT_EQ(image.syscall_entry_offset(nr),
              base + static_cast<std::size_t>(nr) * 8);
  }
}

TEST(KernelImage, SyscallEntryOffsetValidatesRange) {
  const KernelImage image = make_image();
  EXPECT_THROW(image.syscall_entry_offset(-1), std::out_of_range);
  EXPECT_THROW(image.syscall_entry_offset(kSyscallTableEntries),
               std::out_of_range);
}

TEST(KernelImage, SyscallEntriesHoldTextAddresses) {
  // Entries are little-endian VAs inside the kernel text mapping.
  const KernelImage image = make_image();
  const auto entry = image.benign_syscall_entry(kGettidSyscallNr);
  std::uint64_t va = 0;
  for (int b = 7; b >= 0; --b) {
    va = (va << 8) | entry[static_cast<std::size_t>(b)];
  }
  EXPECT_GE(va, 0xFFFFFF8008080000ull);
  EXPECT_LT(va, 0xFFFFFF8008080000ull + image.size());
  EXPECT_EQ(va % 4, 0u);  // instruction aligned
}

TEST(KernelImage, DistinctSyscallsHaveDistinctHandlers) {
  const KernelImage image = make_image();
  EXPECT_NE(image.benign_syscall_entry(1), image.benign_syscall_entry(2));
}

TEST(KernelImage, InstallCopiesImageIntoMemory) {
  const KernelImage image = make_image();
  hw::Memory memory(16 * 1024 * 1024);
  image.install(memory);
  const std::size_t off = image.syscall_entry_offset(kGettidSyscallNr);
  const auto entry = image.benign_syscall_entry(kGettidSyscallNr);
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(memory.read(off + static_cast<std::size_t>(b)),
              entry[static_cast<std::size_t>(b)]);
  }
}

TEST(KernelImage, InstallRejectsSmallMemory) {
  const KernelImage image = make_image();
  hw::Memory memory(1024);
  EXPECT_THROW(image.install(memory), std::invalid_argument);
}

TEST(KernelImage, IrqVectorSlotIsInsideVectorsSymbol) {
  const KernelImage image = make_image();
  const auto vectors = image.map().find_symbol("vectors");
  ASSERT_TRUE(vectors.has_value());
  // AArch64 "IRQ from current EL, SPx" vector is at offset 0x280.
  EXPECT_EQ(image.irq_vector_offset(), vectors->offset + 0x280);
  EXPECT_EQ(image.benign_irq_vector().size(), 8u);
}

TEST(KernelImage, BenignAccessorsReflectImageBytes) {
  const KernelImage image = make_image();
  const std::size_t off = image.irq_vector_offset();
  const auto slot = image.benign_irq_vector();
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(slot[static_cast<std::size_t>(b)],
              image.bytes()[off + static_cast<std::size_t>(b)]);
  }
}

// ---------------------------------------------------------------------------
// Worker-shared state (sim/shard.h): inside a ShardContext every
// Scenario references ONE immutable default kernel image, and that shared
// replica must be indistinguishable from the per-trial image it replaces
// — same bytes, same whole-image digests under every hash kind.

TEST(KernelImage, ShardSharedImageHasUnchangedBytesAndDigests) {
  const KernelImage fresh = make_image();  // run-of-record construction

  sim::ShardContext shard;
  sim::ShardContext::Scope scope(shard);
  scenario::Scenario a;
  scenario::Scenario b;
  // One replica per context, not one per trial.
  EXPECT_EQ(&a.kernel(), &b.kernel());
  EXPECT_NE(&a.kernel(), &fresh);
  EXPECT_EQ(shard.get<const KernelImage>("kernel-image/default").get(),
            &a.kernel());

  EXPECT_EQ(a.kernel().bytes(), fresh.bytes());
  const std::span<const std::uint8_t> shared_bytes(a.kernel().bytes());
  const std::span<const std::uint8_t> fresh_bytes(fresh.bytes());
  for (const secure::HashKind kind :
       {secure::HashKind::kDjb2, secure::HashKind::kSdbm,
        secure::HashKind::kFnv1a}) {
    EXPECT_EQ(secure::hash_bytes(kind, shared_bytes),
              secure::hash_bytes(kind, fresh_bytes))
        << secure::to_string(kind);
  }
}

TEST(KernelImage, ScenariosOutsideAShardBuildPrivateImages) {
  ASSERT_EQ(sim::ShardContext::current(), nullptr);
  scenario::Scenario a;
  scenario::Scenario b;
  EXPECT_NE(&a.kernel(), &b.kernel());
  EXPECT_EQ(a.kernel().bytes(), b.kernel().bytes());
}

// The worker's pristine digest base memoizes the streaming chunk-hash
// chain over the shared image. Serving from it must be bit-for-bit what
// hashing the bytes produces: digest == hash_bytes over the area, every
// state_out == hash_resume(state_in, chunk), states chained end to end.

TEST(KernelImage, PristineBaseChainsMatchDirectHashing) {
  auto image = std::make_shared<const KernelImage>(make_default_map());
  secure::PristineBase base(image,
                            std::span<const std::uint8_t>(image->bytes()));
  ASSERT_EQ(base.size(), image->size());

  const std::size_t kChunk = 256;
  const std::size_t offset = 4096;
  const std::size_t length = 16 * kChunk;
  const std::span<const std::uint8_t> area(image->bytes().data() + offset,
                                           length);
  for (const secure::HashKind kind :
       {secure::HashKind::kDjb2, secure::HashKind::kSdbm,
        secure::HashKind::kFnv1a}) {
    const secure::PristineBase::AreaChain* chain =
        base.area_chain(kind, offset, length, kChunk);
    ASSERT_NE(chain, nullptr) << secure::to_string(kind);
    ASSERT_EQ(chain->state_in.size(), length / kChunk);
    ASSERT_EQ(chain->state_out.size(), length / kChunk);
    EXPECT_EQ(chain->state_in[0], secure::hash_seed(kind));
    for (std::size_t k = 0; k < chain->state_in.size(); ++k) {
      EXPECT_EQ(chain->state_out[k],
                secure::hash_resume(kind, chain->state_in[k],
                                    area.subspan(k * kChunk, kChunk)))
          << secure::to_string(kind) << " chunk " << k;
      if (k > 0) {
        EXPECT_EQ(chain->state_in[k], chain->state_out[k - 1]);
      }
    }
    EXPECT_EQ(chain->digest, chain->state_out.back());
    EXPECT_EQ(chain->digest, secure::hash_bytes(kind, area))
        << secure::to_string(kind);
    // Memoized: the second request serves the same chain object.
    EXPECT_EQ(base.area_chain(kind, offset, length, kChunk), chain);
  }
  // Areas leaving the pristine bytes are refused, not clamped.
  EXPECT_EQ(base.area_chain(secure::HashKind::kDjb2, image->size() - kChunk,
                            2 * kChunk, kChunk),
            nullptr);
}

}  // namespace
}  // namespace satin::os
