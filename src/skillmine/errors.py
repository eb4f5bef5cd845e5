"""Engine exception hierarchy.

Every operation error named by a module contract has a concrete class here so
callers (and the CLI) can name the failing operation and case.
"""

from __future__ import annotations


class SkillmineError(Exception):
    """Base class for all engine errors."""


# -- domain tree ------------------------------------------------------------


class TaxonomyParseError(SkillmineError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{suffix}")


class DuplicatePathError(TaxonomyParseError):
    pass


class OrphanParentError(TaxonomyParseError):
    pass


class TreeOperationError(SkillmineError):
    pass


class MissingNodeError(TreeOperationError):
    pass


class InvalidOperandError(TreeOperationError):
    pass


class PartitionError(TreeOperationError):
    pass


# -- registry ---------------------------------------------------------------


class RegistryError(SkillmineError):
    pass


class CorruptRecordError(RegistryError):
    def __init__(self, file: str, line: int, detail: str):
        self.file = file
        self.line = line
        super().__init__(f"corrupt record in {file}:{line}: {detail}")


class LockHeldError(RegistryError):
    pass


class IdCollisionError(RegistryError):
    pass


class InvalidStatusError(RegistryError):
    pass


class IllegalTransitionError(RegistryError):
    def __init__(self, skill_id: str, source: str, target: str):
        self.source = source
        self.target = target
        super().__init__(f"illegal transition for {skill_id}: {source} -> {target}")


class UnknownSkillError(RegistryError):
    pass


class InconsistencyError(RegistryError):
    pass


# -- skill packages ---------------------------------------------------------


class ContractError(SkillmineError):
    pass


class MissingRequiredFieldError(ContractError):
    def __init__(self, field: str):
        self.field = field
        super().__init__(f"missing required field: {field}")


class MalformedInvocationError(ContractError):
    pass


class PathEscapeError(SkillmineError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"path escapes its root: {path}")


class PackageError(SkillmineError):
    pass


# -- provider gateway --------------------------------------------------------


class GatewayError(SkillmineError):
    pass


class MissingContextFieldError(GatewayError):
    def __init__(self, stage: str, field: str):
        self.stage = stage
        self.field = field
        super().__init__(f"stage {stage} requires context field: {field}")


class MockMissError(GatewayError):
    pass


class TransportError(GatewayError):
    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        super().__init__(f"{message} (after {attempts} attempts)")


class NotASingleDocumentError(GatewayError):
    pass


class SchemaViolationError(GatewayError):
    def __init__(self, stage: str, field: str, detail: str):
        self.stage = stage
        self.field = field
        super().__init__(f"stage {stage} schema violation at field {field}: {detail}")


# -- pipeline ----------------------------------------------------------------


class PipelineError(SkillmineError):
    pass


class OutOfOrderStageError(PipelineError):
    pass


class RefreshAbortedError(PipelineError):
    pass


# -- validation harness -------------------------------------------------------


class HarnessError(SkillmineError):
    pass


class NotApplicableError(HarnessError):
    pass


class NonNumericScoreError(HarnessError):
    pass


# -- novelty ------------------------------------------------------------------


class NoveltyError(SkillmineError):
    pass


class EmptyKeywordsError(NoveltyError):
    pass


class CatalogReadError(NoveltyError):
    pass


# -- worker coordination -------------------------------------------------------


class WorkerError(SkillmineError):
    pass


class DuplicateWorkspaceError(WorkerError):
    pass


class SharedFileWriteError(WorkerError):
    def __init__(self, leaf_path: str, paths: list[str]):
        self.leaf_path = leaf_path
        self.paths = list(paths)
        joined = ", ".join(self.paths)
        super().__init__(f"worker for {leaf_path} wrote refresh-owned paths: {joined}")


class MergeCollisionError(WorkerError):
    pass


class DigestMismatchError(WorkerError):
    pass


# -- export --------------------------------------------------------------------


class ExportError(SkillmineError):
    pass
